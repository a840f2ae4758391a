// Command infilterd is the InFilter analysis daemon: it receives flow
// export datagrams (NetFlow v5, NetFlow v9 or IPFIX, auto-detected per
// datagram) on one UDP port per emulated border router / peer AS, runs
// the Basic or Enhanced InFilter pipeline over the flows, and reports
// attacks as IDMEF alerts (to a TCP consumer or stdout).
//
// Usage:
//
//	infilterd -ports 5001,5002,5003 -mode EI -train-flows 1500 [-alert 127.0.0.1:6000]
//
// Port i in the list carries flows from peer AS i (the testbed's
// demultiplexing convention, paper §6.2). EIA sets are preloaded from
// -eia-file (lines: "<peerAS> <cidr>") and grow at runtime as legal
// traffic from new prefixes is promoted.
//
// Ingest is batched by default: each port runs -readers reader sockets
// (SO_REUSEPORT kernel load balancing on Linux, with recvmmsg-style
// multi-datagram reads), and decoded records are handed to the pipeline
// in batches of up to -batch-size records. A partially filled batch is
// flushed after -batch-timeout, so trickle traffic keeps per-record
// detection latency. -batch-size 1 hands every datagram over as it decodes.
//
// Flows are analyzed by a sharded analysis.ParallelEngine: each peer AS
// maps to one worker shard (-workers, default one per port), fed through a
// bounded queue (-queue-depth) that applies backpressure to the UDP
// receive loops when analysis falls behind. On SIGINT/SIGTERM the daemon
// stops ingest, drains every queued flow — including partially filled
// ingest batches — through the pipeline, then flushes the capture
// archive and the alert connection before exiting.
//
// With -state-dir the daemon warm-restarts: EIA state (including runtime
// promotions) and the trained NNS detector are checkpointed into the
// directory every -checkpoint-interval and flushed once more during the
// shutdown drain; on the next start the checkpoints are loaded and the
// daemon resumes with its learned state instead of retraining.
//
// NetFlow v9 and IPFIX streams are template-driven: templates are
// learned into a bounded per-exporter cache (4096 templates, expiring 30m
// after their last refresh) shared by every listening port, and data sets
// that arrive before their template are buffered (up to 512) and decoded
// once the template shows up. Template learning, orphan buffering and
// per-exporter sequence gaps are all reported on /metrics
// (infilter_netflow_* families).
//
// With -cluster-listen/-cluster-peers several infilterd instances run as
// one logical deployment: a rendezvous hash ring over the node addresses
// decides which node owns each peer AS's EIA training, and every
// -replicate-interval each node ships its EIA state — as the same
// versioned checkpoint format the warm-restart path writes — to its
// peers over TCP, where it is folded in under eia merge semantics.
// Replication is off the verdict path: local checking never blocks on a
// peer, and an unreachable peer costs backoff retries only.
//
// With -admin-addr the daemon also serves an operator HTTP endpoint:
// /metrics (Prometheus text format covering the collector, the flow
// decoder, the analysis shards, EIA, scan, NNS, the alert sink and, in
// cluster mode, the infilter_cluster_* replication series), /healthz
// (flips to 503 "draining" the moment shutdown starts), /cluster (JSON
// per-peer replication status and cluster-wide aggregates; 404 when
// cluster mode is off) and /debug/pprof. The admin server closes last
// during shutdown so the drain is observable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode"

	"infilter/internal/analysis"
	"infilter/internal/checkpoint"
	"infilter/internal/cluster"
	"infilter/internal/eia"
	"infilter/internal/flowtools"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
	"infilter/internal/trace"
)

// Checkpoint artifact names inside -state-dir.
const (
	eiaCheckpointName = "eia.ckpt"
	nnsCheckpointName = "nns.ckpt"
	ttlCheckpointName = "ttl.ckpt"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon body: it returns once ctx is canceled (the signal
// path) and every in-flight flow has been drained and flushed.
func run(ctx context.Context, args []string) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	return runWith(ctx, cfg, nil)
}

// config is the daemon's command line, parsed and checked by parseConfig;
// runWith uses it as is.
type config struct {
	ports         []int
	mode          analysis.Mode
	alert         string
	adminAddr     string
	eiaFile       string
	modelFile     string
	trainFlows    int
	trainSeed     int64
	captureDir    string
	stats         time.Duration
	workers       int // analysis shards, never 0: parseConfig resolves 0 to one per port
	queueDepth    int
	readers       int
	batchSize     int
	batchTimeout  time.Duration
	stateDir      string
	ckptInterval  time.Duration
	ttlTolerance  int
	clusterListen string
	clusterPeers  []string
	clusterNode   string // ring identity; non-empty exactly in cluster mode
	replInterval  time.Duration
}

// parseConfig parses args and rejects every bad setting, so a daemon that
// starts runs with exactly what was asked for and nothing has bound yet
// when a setting is refused.
func parseConfig(args []string) (config, error) {
	cfg := config{ports: []int{5001}, mode: analysis.ModeEnhanced}
	fs := flag.NewFlagSet("infilterd", flag.ContinueOnError)
	fs.Func("ports", "comma-separated UDP ports; port i carries peer AS i (default 5001)", func(s string) (err error) {
		cfg.ports, err = parsePorts(s)
		return err
	})
	fs.Func("mode", "BI (basic) or EI (enhanced) (default EI)", func(s string) error {
		m, ok := map[string]analysis.Mode{"BI": analysis.ModeBasic, "EI": analysis.ModeEnhanced}[strings.ToUpper(s)]
		if !ok {
			return fmt.Errorf("unknown mode %q", s)
		}
		cfg.mode = m
		return nil
	})
	fs.StringVar(&cfg.alert, "alert", "", "IDMEF consumer TCP address (empty: log alerts)")
	fs.StringVar(&cfg.adminAddr, "admin-addr", "", "admin HTTP address serving /metrics, /healthz, /cluster and /debug/pprof (empty: disabled)")
	fs.StringVar(&cfg.eiaFile, "eia-file", "", "file of '<peerAS> <cidr>' lines preloading EIA sets")
	fs.StringVar(&cfg.modelFile, "model", "", "detector model file: loaded if present, else trained and saved there (EI mode)")
	fs.IntVar(&cfg.trainFlows, "train-flows", 1500, "synthetic flows for NNS training (EI mode)")
	fs.Int64Var(&cfg.trainSeed, "train-seed", 1, "seed for synthetic training traffic")
	fs.StringVar(&cfg.captureDir, "capture", "", "archive received flows into this directory (flow-capture role)")
	fs.DurationVar(&cfg.stats, "stats", 30*time.Second, "period for stats logging")
	fs.IntVar(&cfg.workers, "workers", 0, "analysis shards; flows route by peer AS (0: one per port)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", analysis.DefaultQueueDepth, "bounded per-shard queue depth (backpressure)")
	fs.IntVar(&cfg.readers, "readers", 1, "UDP reader sockets per port (>1 uses SO_REUSEPORT; Linux only)")
	fs.IntVar(&cfg.batchSize, "batch-size", flowtools.DefaultBatchRecords, "flow records per ingest batch handed to the pipeline (1: every datagram as it decodes)")
	fs.DurationVar(&cfg.batchTimeout, "batch-timeout", flowtools.DefaultFlushTimeout, "max wait before a partial ingest batch is flushed")
	fs.StringVar(&cfg.stateDir, "state-dir", "", "warm-restart directory: EIA and NNS state checkpointed here and loaded on startup (empty: disabled)")
	fs.DurationVar(&cfg.ckptInterval, "checkpoint-interval", checkpoint.DefaultInterval, "period between background checkpoints (with -state-dir)")
	fs.IntVar(&cfg.ttlTolerance, "ttl-tolerance", 0, "TTL-profile hop tolerance for the second-opinion detector (0 disables the stage; EI mode only)")
	fs.StringVar(&cfg.clusterListen, "cluster-listen", "", "TCP address for inbound EIA snapshot replication (enables cluster mode)")
	// Each peer gets its own metric series and replication worker, so a
	// repeated address is refused rather than replicated to twice.
	fs.Func("cluster-peers", "comma-separated replication addresses of the other cluster nodes", func(s string) error {
		cfg.clusterPeers = strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		for i, p := range cfg.clusterPeers {
			if slices.Contains(cfg.clusterPeers[:i], p) {
				return fmt.Errorf("peer %s given twice", p)
			}
		}
		return nil
	})
	fs.StringVar(&cfg.clusterNode, "cluster-node", "", "this node's ring identity, the address peers dial it at (default: -cluster-listen)")
	fs.DurationVar(&cfg.replInterval, "replicate-interval", cluster.DefaultInterval, "period between EIA snapshot replication rounds")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}

	// No count, size or period may be negative: the components would
	// quietly substitute their default. 0 keeps its documented meaning;
	// -train-seed is an int64, and any seed is valid.
	var negative error
	fs.VisitAll(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok && negative == nil {
			switch g.Get().(type) {
			case int, time.Duration:
				if strings.HasPrefix(f.Value.String(), "-") {
					negative = fmt.Errorf("bad -%s %s: must not be negative", f.Name, f.Value)
				}
			}
		}
	})
	if negative != nil {
		return config{}, negative
	}
	if cfg.batchSize == 0 || cfg.batchTimeout == 0 || cfg.stats == 0 {
		return config{}, fmt.Errorf("bad -batch-size %d, -batch-timeout %s or -stats %s: each must be positive",
			cfg.batchSize, cfg.batchTimeout, cfg.stats)
	}
	if cfg.ttlTolerance > 0 && cfg.mode != analysis.ModeEnhanced {
		return config{}, fmt.Errorf("-ttl-tolerance %d needs -mode EI: the TTL stage runs only there", cfg.ttlTolerance)
	}
	if cfg.workers == 0 {
		cfg.workers = len(cfg.ports)
	}

	switch {
	case cfg.clusterListen == "" && len(cfg.clusterPeers) == 0:
		if cfg.clusterNode != "" {
			return config{}, fmt.Errorf("-cluster-node needs -cluster-listen or -cluster-peers")
		}
	case cfg.clusterNode == "" && cfg.clusterListen == "":
		return config{}, fmt.Errorf("-cluster-peers without -cluster-listen needs -cluster-node")
	case cfg.clusterNode == "":
		cfg.clusterNode = cfg.clusterListen
	}
	if slices.Contains(cfg.clusterPeers, cfg.clusterNode) {
		return config{}, fmt.Errorf("-cluster-peers lists this node's own ID %s", cfg.clusterNode)
	}
	return cfg, nil
}

// runWith runs the daemon on a parsed config and additionally reports the
// bound UDP ports and the admin HTTP address ("" when disabled) through
// onReady, letting tests drive a daemon listening on ephemeral ports.
// Every return — a failed start or the signal path — tears down through
// daemon.close.
func runWith(ctx context.Context, cfg config, onReady func(ports []int, adminAddr string)) (err error) {
	var d daemon
	defer func() { err = errors.Join(err, d.close()) }()

	// Cluster mode: N daemons form one logical deployment. The rendezvous
	// ring over the node IDs decides which node owns each peer AS's EIA
	// training (the PromotionFilter below); every node still checks all of
	// its own traffic, and learned state reaches the rest of the cluster
	// through snapshot replication. The ring is built before the engine,
	// because the promotion filter is engine configuration; the replication
	// node itself comes after the engine, whose store it feeds.
	var ring *cluster.Ring
	var promotionFilter func(eia.PeerAS) bool
	if cfg.clusterNode != "" {
		ring, err = cluster.NewRing(append([]string{cfg.clusterNode}, cfg.clusterPeers...))
		if err != nil {
			return err
		}
		id := cfg.clusterNode
		promotionFilter = func(peer eia.PeerAS) bool { return ring.OwnsPeerAS(id, uint16(peer)) }
	}

	// The Bloom config rides on the Set: the engine's snapshot store adopts
	// the Set's Config, and rebuilds the filters from whatever the trie
	// holds — file preload, checkpoint, training — when it is constructed.
	// 10 bits per prefix is about a 1% false-positive rate; the tier only
	// short-circuits provably-unknown sources, so verdicts do not depend on it.
	set := eia.NewSet(eia.Config{BloomBitsPerEntry: 10})
	if cfg.eiaFile != "" {
		if err := loadEIAFile(set, cfg.eiaFile); err != nil {
			return err
		}
		log.Printf("loaded %d EIA prefixes from %s", set.Len(), cfg.eiaFile)
	}
	// The checkpoint loads after -eia-file: a row present in both re-homes
	// to its checkpointed peer, so warm-restart state — which includes every
	// runtime promotion — wins over the static preload.
	if cfg.stateDir != "" {
		ok, err := checkpoint.Load(cfg.stateDir, eiaCheckpointName, func(r io.Reader) error {
			return eia.ReadCheckpointInto(set, r)
		})
		if err != nil {
			return err
		}
		if ok {
			log.Printf("warm restart: %d EIA prefixes from %s", set.Len(), cfg.stateDir)
		}
	}

	var detector *nns.Detector
	if cfg.mode == analysis.ModeEnhanced {
		if cfg.stateDir != "" {
			ok, err := checkpoint.Load(cfg.stateDir, nnsCheckpointName, func(r io.Reader) (err error) {
				detector, err = nns.LoadDetector(r)
				return err
			})
			if err != nil {
				return err
			}
			if ok {
				log.Printf("warm restart: detector with %d clusters from %s", len(detector.Clusters()), cfg.stateDir)
			}
		}
		if detector == nil {
			detector, err = obtainDetector(cfg.modelFile, cfg.trainSeed, cfg.trainFlows)
			if err != nil {
				return err
			}
		}
	}

	// Telemetry: every component records into one registry; the admin
	// server (when enabled) exposes it on /metrics. The registry is built
	// regardless of the flag so every metric family exists from startup.
	reg := telemetry.NewRegistry()
	senderMetrics := idmef.NewSenderMetrics(reg)
	nnsMetrics := nns.NewMetrics(reg)
	// Template-driven decode state shared by every listening port: v9 and
	// IPFIX exporters are keyed by source address + observation domain, so
	// one cache serves all peers without cross-talk.
	templates := netflow.NewTemplateCache(netflow.TemplateCacheConfig{})
	templates.SetMetrics(netflow.NewMetrics(reg))
	if detector != nil {
		detector.SetMetrics(nnsMetrics)
	}
	if cfg.adminAddr != "" {
		d.admin, err = newAdminServer(cfg.adminAddr, reg)
		if err != nil {
			return fmt.Errorf("admin listen %s: %w", cfg.adminAddr, err)
		}
		log.Printf("admin endpoint on http://%s (/metrics /healthz /cluster /debug/pprof)", d.admin.Addr())
	}

	d.engine, err = analysis.NewParallelEngine(analysis.ParallelConfig{
		Config: analysis.Config{
			Mode:            cfg.mode,
			TTL:             scan.TTLConfig{Tolerance: cfg.ttlTolerance},
			PromotionFilter: promotionFilter,
		},
		Shards:     cfg.workers,
		QueueDepth: cfg.queueDepth,
		Metrics:    analysis.NewPipelineMetrics(reg, cfg.workers),
	}, set, detector)
	if err != nil {
		return err
	}
	// TTL profiles are engine state, so their checkpoint loads after the
	// engine exists. A state dir written before the TTL stage shipped
	// simply has no ttl.ckpt — the stage cold-starts and the rest of the
	// warm restart proceeds, so old checkpoints keep loading unchanged.
	if prof := d.engine.TTLProfile(); cfg.stateDir != "" && prof != nil {
		ok, err := checkpoint.Load(cfg.stateDir, ttlCheckpointName, func(r io.Reader) error {
			return scan.ReadCheckpointInto(prof, r)
		})
		if err != nil {
			return err
		}
		if ok {
			log.Printf("warm restart: %d TTL source profiles from %s", prof.Sources(), cfg.stateDir)
		}
	}

	// Cluster replication node: ships the engine's EIA snapshots to every
	// peer each -replicate-interval and folds inbound snapshots into the
	// same store. Strictly off the verdict path — a peer being down costs
	// backoff retries, never a blocked check.
	if ring != nil {
		cm := cluster.NewMetrics(reg, cfg.clusterPeers)
		d.cluster, err = cluster.NewNode(cluster.Config{
			NodeID:   cfg.clusterNode,
			Listen:   cfg.clusterListen,
			Peers:    cfg.clusterPeers,
			Interval: cfg.replInterval,
		}, d.engine.EIASet(), cm)
		if err != nil {
			return err
		}
		owned := ring.OwnedPeerASCount(cfg.clusterNode, len(cfg.ports))
		cm.RingOwned.Set(int64(owned))
		d.cluster.Start()
		if d.admin != nil {
			d.admin.setClusterStatus(d.cluster.Status)
		}
		log.Printf("cluster mode: node %s, %d peer(s), replicating every %s, owns %d/%d peer ASes",
			cfg.clusterNode, len(cfg.clusterPeers), cfg.replInterval, owned, len(cfg.ports))
	}

	// Warm-restart checkpoints: the engine's snapshot store and the trained
	// detector are periodically serialized into -state-dir (atomic rename,
	// so a crash never corrupts the previous generation) and flushed one
	// last time during shutdown, after the drain.
	if cfg.stateDir != "" {
		// The EIA artifact reads the snapshot published at each write, so
		// promotions and merged cluster state reach the checkpoint.
		store := d.engine.EIASet()
		arts := []checkpoint.Artifact{{Name: eiaCheckpointName, Write: func(w io.Writer) error {
			return store.Snapshot().WriteCheckpoint(w)
		}}}
		if detector != nil {
			arts = append(arts, checkpoint.Artifact{Name: nnsCheckpointName, Write: detector.Save})
		}
		if prof := d.engine.TTLProfile(); prof != nil {
			arts = append(arts, checkpoint.Artifact{Name: ttlCheckpointName, Write: prof.WriteCheckpoint})
		}
		d.ckpt, err = checkpoint.NewManager(
			checkpoint.Config{Dir: cfg.stateDir, Interval: cfg.ckptInterval},
			checkpoint.NewMetrics(reg), arts...)
		if err != nil {
			return err
		}
		d.ckpt.Start()
		log.Printf("checkpointing state into %s every %s", cfg.stateDir, cfg.ckptInterval)
	}

	if cfg.alert != "" {
		d.sender, err = idmef.Dial(cfg.alert)
		if err != nil {
			return err
		}
		d.sender.SetMetrics(senderMetrics)
		d.engine.SetAlertSink(func(a idmef.Alert) {
			if err := d.sender.Send(a); err != nil {
				log.Printf("send alert: %v", err)
			}
		})
	} else {
		d.engine.SetAlertSink(func(a idmef.Alert) {
			senderMetrics.Sent.Inc() // delivered to the log sink
			log.Printf("ALERT %s stage=%s peerAS=%d %s:%d -> %s:%d",
				a.MessageID, a.Assessment.Stage, a.Assessment.PeerAS,
				a.Source.Address, a.Source.Port, a.Target.Address, a.Target.Port)
		})
	}

	if cfg.captureDir != "" {
		d.capture, err = flowtools.NewCapture(cfg.captureDir, flowtools.DefaultRotation)
		if err != nil {
			return err
		}
		log.Printf("archiving flows into %s", cfg.captureDir)
	}

	// The receive loops start inside Listen, before the bound port (and so
	// the peer AS) of an ephemeral listener is known, so the port→peer map
	// is filled under a lock the handlers share.
	var peerMu sync.RWMutex
	peerOfPort := make(map[int]eia.PeerAS, len(cfg.ports))
	// Ingest path: every delivered batch — the records of one port, so of
	// one peer — is one SubmitBatch, classified against one EIA snapshot.
	d.collector = flowtools.New(flowtools.Config{
		Readers:      cfg.readers,
		MaxRecords:   cfg.batchSize,
		FlushTimeout: cfg.batchTimeout,
		ReadBuffer:   4 << 20,
	}, func(b flowtools.Batch) {
		peerMu.RLock()
		peer, ok := peerOfPort[b.Port]
		peerMu.RUnlock()
		if !ok {
			return
		}
		if d.capture != nil {
			for _, r := range b.Records {
				if err := d.capture.Write(r); err != nil {
					log.Printf("archive flow: %v", err)
				}
			}
		}
		// An error means the engine is closed: shutdown is in progress.
		_ = d.engine.SubmitBatch(peer, b.Records)
	})
	d.collector.SetMetrics(flowtools.NewIngestMetrics(reg))
	d.collector.SetTemplateCache(templates)
	log.Printf("batched ingest: %d reader(s)/port, batch-size %d, batch-timeout %s",
		d.collector.Readers(), cfg.batchSize, cfg.batchTimeout)

	bound := make([]int, 0, len(cfg.ports))
	for i, p := range cfg.ports {
		peerMu.Lock()
		bp, err := d.collector.Listen(p)
		if err == nil {
			peerOfPort[bp] = eia.PeerAS(i + 1)
			bound = append(bound, bp)
		}
		peerMu.Unlock()
		if err != nil {
			return fmt.Errorf("listen %d: %w", p, err)
		}
		log.Printf("peer AS %d on udp/%d (%s mode, %d shards)", i+1, bp, cfg.mode, cfg.workers)
	}
	if onReady != nil {
		addr := ""
		if d.admin != nil {
			addr = d.admin.Addr()
		}
		onReady(bound, addr)
	}

	ticker := time.NewTicker(cfg.stats)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := d.engine.Stats()
			recv, malformed := d.collector.Stats()
			log.Printf("stats: received=%d malformed=%d processed=%d suspects=%d attacks=%d promotions=%d",
				recv, malformed, st.Processed, st.Suspects, st.Attacks, st.Promotions)
		case <-ctx.Done():
			log.Printf("shutting down: draining in-flight flows")
			return nil
		}
	}
}

// daemon holds the running components. A failed start leaves the later
// ones nil.
type daemon struct {
	admin     *adminServer
	engine    *analysis.ParallelEngine
	cluster   *cluster.Node
	ckpt      *checkpoint.Manager
	sender    *idmef.Sender
	capture   *flowtools.Capture
	collector *flowtools.Collector
}

// close tears the daemon down in dependency order, skipping any component
// that was never started: flip /healthz to draining, stop ingest and join
// the receive loops, drain every queued flow through the analysis shards
// (emitting their alerts), stop cluster replication — after the drain, so
// the final replication round a peer pulls includes drain-time promotions
// — flush the final state checkpoint, then the capture archive and the
// alert connection, and finally stop the admin server — last, so /metrics
// stays scrapable through the drain. The first error is reported; later
// stages still run.
func (d *daemon) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if d.admin != nil {
		d.admin.setDraining()
	}
	if d.collector != nil {
		keep(d.collector.Close())
	}
	if d.engine != nil {
		keep(d.engine.Close())
	}
	if d.cluster != nil {
		keep(d.cluster.Close())
	}
	if d.ckpt != nil {
		keep(d.ckpt.Close())
	}
	if d.capture != nil {
		keep(d.capture.Close())
	}
	if d.sender != nil {
		keep(d.sender.Close())
	}
	if d.engine != nil {
		st := d.engine.Stats()
		log.Printf("drained: processed=%d suspects=%d attacks=%d promotions=%d",
			st.Processed, st.Suspects, st.Attacks, st.Promotions)
	}
	if d.admin != nil {
		keep(d.admin.Close())
	}
	return firstErr
}

// parsePorts reads the -ports list. A repeated non-zero port is rejected:
// every listener sets SO_REUSEPORT, so both binds would succeed and the
// later peer AS would silently claim the earlier one's traffic. Port 0
// may repeat, since each bind gets its own ephemeral port.
func parsePorts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 0 || p > 65535 {
			return nil, fmt.Errorf("bad port %q", part)
		}
		if p != 0 && slices.Contains(out, p) {
			return nil, fmt.Errorf("port %d given twice", p)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ports given")
	}
	return out, nil
}

func loadEIAFile(set *eia.Set, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := eia.ReadInto(set, f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// obtainDetector loads a saved model when one exists; otherwise it trains
// from synthetic traffic and, if a path was given, persists the result for
// the next start (the paper's offline training phase, §4.2).
func obtainDetector(path string, seed int64, flows int) (*nns.Detector, error) {
	if path != "" {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			d, err := nns.LoadDetector(f)
			if err != nil {
				return nil, fmt.Errorf("load model %s: %w", path, err)
			}
			log.Printf("loaded detector model from %s (%d clusters)", path, len(d.Clusters()))
			return d, nil
		}
	}
	log.Printf("training NNS detector on %d synthetic flows", flows)
	d, err := trainDetector(seed, flows)
	if err != nil {
		return nil, fmt.Errorf("train detector: %w", err)
	}
	if path != "" {
		// Atomic, so a crash mid-save cannot leave a truncated model that
		// fails every later start.
		if err := checkpoint.WriteAtomic(path, d.Save); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		log.Printf("saved detector model to %s", path)
	}
	return d, nil
}

func trainDetector(seed int64, flows int) (*nns.Detector, error) {
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       time.Now().Add(-time.Hour),
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("0.0.0.0/1")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		return nil, err
	}
	return nns.Train(nns.DetectorConfig{}, netflow.Aggregate(pkts, 0))
}
