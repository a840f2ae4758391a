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
// demultiplexing convention, paper §6.2). EIA sets are trained from the
// first -eia-training flows observed per port unless -eia-file provides
// them explicitly (lines: "<peerAS> <cidr>").
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
// learned into a bounded per-exporter cache (-template-max, -template-ttl)
// shared by every listening port, and data sets that arrive before their
// template are buffered (-orphan-max) and decoded once the template shows
// up. Template learning, orphan buffering and per-exporter sequence gaps
// are all reported on /metrics (infilter_netflow_* families).
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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/checkpoint"
	"infilter/internal/cluster"
	"infilter/internal/eia"
	"infilter/internal/flow"
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

// ingester is the daemon's view of the flowtools.Collector.
type ingester interface {
	Listen(port int) (int, error)
	Stats() (received, malformed int)
	Close() error
}

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
	return runWith(ctx, args, nil)
}

// runWith additionally reports the bound UDP ports and the admin HTTP
// address ("" when disabled) through onReady, letting tests drive a
// daemon listening on ephemeral ports.
func runWith(ctx context.Context, args []string, onReady func(ports []int, adminAddr string)) error {
	fs := flag.NewFlagSet("infilterd", flag.ContinueOnError)
	var (
		portsFlag   = fs.String("ports", "5001", "comma-separated UDP ports; port i carries peer AS i")
		modeFlag    = fs.String("mode", "EI", "BI (basic) or EI (enhanced)")
		alertFlag   = fs.String("alert", "", "IDMEF consumer TCP address (empty: log alerts)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP address serving /metrics, /healthz and /debug/pprof (empty: disabled)")
		eiaFile     = fs.String("eia-file", "", "file of '<peerAS> <cidr>' lines preloading EIA sets")
		modelFile   = fs.String("model", "", "detector model file: loaded if present, else trained and saved there (EI mode)")
		trainFlows  = fs.Int("train-flows", 1500, "synthetic flows for NNS training (EI mode)")
		trainSeed   = fs.Int64("train-seed", 1, "seed for synthetic training traffic")
		captureDir  = fs.String("capture", "", "archive received flows into this directory (flow-capture role)")
		statsPeriod = fs.Duration("stats", 30*time.Second, "period for stats logging")
		workers     = fs.Int("workers", 0, "analysis shards; flows route by peer AS (0: one per port)")
		queueDepth  = fs.Int("queue-depth", analysis.DefaultQueueDepth, "bounded per-shard queue depth (backpressure)")
		readers     = fs.Int("readers", 1, "UDP reader sockets per port (>1 uses SO_REUSEPORT; Linux only)")
		batchSize   = fs.Int("batch-size", flowtools.DefaultBatchRecords, "flow records per ingest batch handed to the pipeline (1: every datagram as it decodes)")
		batchWait   = fs.Duration("batch-timeout", flowtools.DefaultFlushTimeout, "max wait before a partial ingest batch is flushed")
		stateDir    = fs.String("state-dir", "", "warm-restart directory: EIA and NNS state checkpointed here and loaded on startup (empty: disabled)")
		ckptPeriod  = fs.Duration("checkpoint-interval", checkpoint.DefaultInterval, "period between background checkpoints (with -state-dir)")
		tplMax      = fs.Int("template-max", netflow.DefaultMaxTemplates, "max NetFlow v9/IPFIX templates cached across all exporters")
		tplTTL      = fs.Duration("template-ttl", netflow.DefaultTemplateTTL, "NetFlow v9/IPFIX templates unrefreshed this long expire")
		orphanMax   = fs.Int("orphan-max", netflow.DefaultMaxOrphans, "max buffered v9/IPFIX data sets awaiting their template")
		bloomBits   = fs.Int("eia-bloom-bits-per-entry", 10, "EIA Bloom fast-tier bits per prefix (0 disables the tier; verdicts are identical either way)")
		ttlTol      = fs.Int("ttl-tolerance", 0, "TTL-profile hop tolerance for the second-opinion detector (0 disables the stage; EI mode only)")

		clusterListen = fs.String("cluster-listen", "", "TCP address for inbound EIA snapshot replication (enables cluster mode)")
		clusterPeers  = fs.String("cluster-peers", "", "comma-separated replication addresses of the other cluster nodes")
		clusterNodeID = fs.String("cluster-node", "", "this node's ring identity, the address peers dial it at (default: -cluster-listen)")
		replInterval  = fs.Duration("replicate-interval", cluster.DefaultInterval, "period between EIA snapshot replication rounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	mode := analysis.ModeEnhanced
	switch strings.ToUpper(*modeFlag) {
	case "EI":
	case "BI":
		mode = analysis.ModeBasic
	default:
		return fmt.Errorf("unknown mode %q", *modeFlag)
	}

	ports, err := parsePorts(*portsFlag)
	if err != nil {
		return err
	}
	if *batchSize < 1 || *batchWait <= 0 {
		return fmt.Errorf("bad batch settings: -batch-size %d (want >= 1) -batch-timeout %s", *batchSize, *batchWait)
	}
	shards := *workers
	if shards <= 0 {
		shards = len(ports)
	}

	// Cluster mode: N daemons form one logical deployment. The rendezvous
	// ring over the node IDs decides which node owns each peer AS's EIA
	// training (the PromotionFilter below); every node still checks all of
	// its own traffic, and learned state reaches the rest of the cluster
	// through snapshot replication. The ring is built here, before the
	// engine, because the promotion filter is engine configuration; the
	// replication node itself comes after the engine, whose store it feeds.
	var (
		clusterRing  *cluster.Ring
		clusterID    string
		clusterAddrs []string
	)
	if *clusterListen != "" || *clusterPeers != "" {
		clusterID = *clusterNodeID
		if clusterID == "" {
			clusterID = *clusterListen
		}
		if clusterID == "" {
			return fmt.Errorf("-cluster-peers without -cluster-listen needs -cluster-node")
		}
		if *clusterPeers != "" {
			for _, p := range strings.Split(*clusterPeers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					clusterAddrs = append(clusterAddrs, p)
				}
			}
		}
		clusterRing, err = cluster.NewRing(append([]string{clusterID}, clusterAddrs...))
		if err != nil {
			return err
		}
	}

	if *bloomBits < 0 {
		return fmt.Errorf("bad bloom settings: -eia-bloom-bits-per-entry %d", *bloomBits)
	}
	// The Bloom config rides on the Set: the engine's snapshot store adopts
	// the Set's Config, and rebuilds the filters from whatever the trie
	// holds — file preload, checkpoint, training — when it is constructed.
	set := eia.NewSet(eia.Config{BloomBitsPerEntry: *bloomBits})
	if *eiaFile != "" {
		if err := loadEIAFile(set, *eiaFile); err != nil {
			return err
		}
		log.Printf("loaded %d EIA prefixes from %s", set.Len(), *eiaFile)
	}
	// The checkpoint loads after -eia-file: a row present in both re-homes
	// to its checkpointed peer, so warm-restart state — which includes every
	// runtime promotion — wins over the static preload.
	if *stateDir != "" {
		ok, err := checkpoint.Load(*stateDir, eiaCheckpointName, func(r io.Reader) error {
			return eia.ReadCheckpointInto(set, r)
		})
		if err != nil {
			return err
		}
		if ok {
			log.Printf("warm restart: %d EIA prefixes from %s", set.Len(), *stateDir)
		}
	}

	var detector *nns.Detector
	if mode == analysis.ModeEnhanced {
		if *stateDir != "" {
			ok, err := checkpoint.Load(*stateDir, nnsCheckpointName, func(r io.Reader) error {
				d, err := nns.LoadDetector(r)
				detector = d
				return err
			})
			if err != nil {
				return err
			}
			if ok {
				log.Printf("warm restart: detector with %d clusters from %s", len(detector.Clusters()), *stateDir)
			}
		}
		if detector == nil {
			detector, err = obtainDetector(*modelFile, *trainSeed, *trainFlows)
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
	templates := netflow.NewTemplateCache(netflow.TemplateCacheConfig{
		MaxTemplates: *tplMax,
		TemplateTTL:  *tplTTL,
		MaxOrphans:   *orphanMax,
	})
	templates.SetMetrics(netflow.NewMetrics(reg))
	if detector != nil {
		detector.SetMetrics(nnsMetrics)
	}
	var admin *adminServer
	if *adminAddr != "" {
		admin, err = newAdminServer(*adminAddr, reg)
		if err != nil {
			return fmt.Errorf("admin listen %s: %w", *adminAddr, err)
		}
		log.Printf("admin endpoint on http://%s (/metrics /healthz /debug/pprof)", admin.Addr())
	}
	closeAdmin := func() {
		if admin != nil {
			admin.Close()
		}
	}

	var promotionFilter func(eia.PeerAS) bool
	if clusterRing != nil {
		ring, id := clusterRing, clusterID
		promotionFilter = func(peer eia.PeerAS) bool { return ring.OwnsPeerAS(id, uint16(peer)) }
	}
	engine, err := analysis.NewParallelEngine(analysis.ParallelConfig{
		Config: analysis.Config{
			Mode:            mode,
			TTL:             scan.TTLConfig{Tolerance: *ttlTol},
			PromotionFilter: promotionFilter,
		},
		Shards:     shards,
		QueueDepth: *queueDepth,
		Metrics:    analysis.NewPipelineMetrics(reg, shards),
	}, set, detector)
	if err != nil {
		closeAdmin()
		return err
	}
	// TTL profiles are engine state, so their checkpoint loads after the
	// engine exists. A state dir written before the TTL stage shipped
	// simply has no ttl.ckpt — the stage cold-starts and the rest of the
	// warm restart proceeds, so old checkpoints keep loading unchanged.
	if *stateDir != "" && engine.TTLProfile() != nil {
		prof := engine.TTLProfile()
		ok, err := checkpoint.Load(*stateDir, ttlCheckpointName, func(r io.Reader) error {
			return scan.ReadCheckpointInto(prof, r)
		})
		if err != nil {
			engine.Close()
			closeAdmin()
			return err
		}
		if ok {
			log.Printf("warm restart: %d TTL source profiles from %s", prof.Sources(), *stateDir)
		}
	}

	// Cluster replication node: ships the engine's EIA snapshots to every
	// peer each -replicate-interval and folds inbound snapshots into the
	// same store. Strictly off the verdict path — a peer being down costs
	// backoff retries, never a blocked check.
	var clusterNode *cluster.Node
	if clusterRing != nil {
		cm := cluster.NewMetrics(reg, clusterAddrs)
		clusterNode, err = cluster.NewNode(cluster.Config{
			NodeID:   clusterID,
			Listen:   *clusterListen,
			Peers:    clusterAddrs,
			Interval: *replInterval,
		}, engine.EIASet(), cm)
		if err != nil {
			engine.Close()
			closeAdmin()
			return err
		}
		owned := clusterRing.OwnedPeerASCount(clusterID, len(ports))
		cm.RingOwned.Set(int64(owned))
		clusterNode.Start()
		if admin != nil {
			admin.setClusterStatus(clusterNode.Status)
		}
		log.Printf("cluster mode: node %s, %d peer(s), replicating every %s, owns %d/%d peer ASes",
			clusterID, len(clusterAddrs), *replInterval, owned, len(ports))
	}
	closeCluster := func() {
		if clusterNode != nil {
			clusterNode.Close()
		}
	}

	// Warm-restart checkpoints: the engine's snapshot store and the trained
	// detector are periodically serialized into -state-dir (atomic rename,
	// so a crash never corrupts the previous generation) and flushed one
	// last time during shutdown, after the drain.
	var ckpt *checkpoint.Manager
	if *stateDir != "" {
		arts := []checkpoint.Artifact{{Name: eiaCheckpointName, Write: engine.EIASet().WriteCheckpoint}}
		if detector != nil {
			arts = append(arts, checkpoint.Artifact{Name: nnsCheckpointName, Write: detector.Save})
		}
		if prof := engine.TTLProfile(); prof != nil {
			arts = append(arts, checkpoint.Artifact{Name: ttlCheckpointName, Write: prof.WriteCheckpoint})
		}
		ckpt, err = checkpoint.NewManager(
			checkpoint.Config{Dir: *stateDir, Interval: *ckptPeriod},
			checkpoint.NewMetrics(reg), arts...)
		if err != nil {
			closeCluster()
			engine.Close()
			closeAdmin()
			return err
		}
		ckpt.Start()
		log.Printf("checkpointing state into %s every %s", *stateDir, *ckptPeriod)
	}
	closeCkpt := func() {
		if ckpt != nil {
			if err := ckpt.Close(); err != nil {
				log.Printf("final checkpoint: %v", err)
			}
		}
	}

	var sender *idmef.Sender
	if *alertFlag != "" {
		sender, err = idmef.Dial(*alertFlag)
		if err != nil {
			closeCluster()
			engine.Close()
			closeCkpt()
			closeAdmin()
			return err
		}
		sender.SetMetrics(senderMetrics)
		engine.SetAlertSink(func(a idmef.Alert) {
			if err := sender.Send(a); err != nil {
				log.Printf("send alert: %v", err)
			}
		})
	} else {
		engine.SetAlertSink(func(a idmef.Alert) {
			senderMetrics.Sent.Inc() // delivered to the log sink
			log.Printf("ALERT %s stage=%s peerAS=%d %s:%d -> %s:%d",
				a.MessageID, a.Assessment.Stage, a.Assessment.PeerAS,
				a.Source.Address, a.Source.Port, a.Target.Address, a.Target.Port)
		})
	}

	var capture *flowtools.Capture
	if *captureDir != "" {
		capture, err = flowtools.NewCapture(*captureDir, flowtools.DefaultRotation)
		if err != nil {
			closeCluster()
			engine.Close()
			closeCkpt()
			if sender != nil {
				sender.Close()
			}
			closeAdmin()
			return err
		}
		log.Printf("archiving flows into %s", *captureDir)
	}

	// The receive loops start inside Listen, before the bound port (and so
	// the peer AS) of an ephemeral listener is known, so the port→peer map
	// is filled under a lock the handlers share.
	var (
		peerMu     sync.RWMutex
		peerOfPort = make(map[int]eia.PeerAS, len(ports))
	)
	lookupPeer := func(port int) (eia.PeerAS, bool) {
		peerMu.RLock()
		peer, ok := peerOfPort[port]
		peerMu.RUnlock()
		return peer, ok
	}
	archive := func(recs []flow.Record) {
		if capture == nil {
			return
		}
		for _, r := range recs {
			if err := capture.Write(r); err != nil {
				log.Printf("archive flow: %v", err)
			}
		}
	}
	// Ingest path: every delivered batch — the records of one port, so of
	// one peer — is one SubmitBatch, classified against one EIA snapshot.
	collector := flowtools.New(flowtools.Config{
		Readers:      *readers,
		MaxRecords:   *batchSize,
		FlushTimeout: *batchWait,
		ReadBuffer:   4 << 20,
	}, func(b flowtools.Batch) {
		peer, ok := lookupPeer(b.Port)
		if !ok {
			return
		}
		archive(b.Records)
		if err := engine.SubmitBatch(peer, b.Records); err != nil {
			return // engine closed: shutdown in progress
		}
	})
	collector.SetMetrics(flowtools.NewIngestMetrics(reg))
	collector.SetTemplateCache(templates)
	log.Printf("batched ingest: %d reader(s)/port, batch-size %d, batch-timeout %s",
		collector.Readers(), *batchSize, *batchWait)

	bound := make([]int, 0, len(ports))
	for i, p := range ports {
		peerMu.Lock()
		bp, err := collector.Listen(p)
		if err == nil {
			peerOfPort[bp] = eia.PeerAS(i + 1)
			bound = append(bound, bp)
		}
		peerMu.Unlock()
		if err != nil {
			collector.Close()
			closeCluster()
			engine.Close()
			closeCkpt()
			if capture != nil {
				capture.Close()
			}
			if sender != nil {
				sender.Close()
			}
			closeAdmin()
			return fmt.Errorf("listen %d: %w", p, err)
		}
		log.Printf("peer AS %d on udp/%d (%s mode, %d shards)", i+1, bp, mode, shards)
	}
	if onReady != nil {
		addr := ""
		if admin != nil {
			addr = admin.Addr()
		}
		onReady(bound, addr)
	}

	ticker := time.NewTicker(*statsPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := engine.Stats()
			recv, malformed := collector.Stats()
			log.Printf("stats: received=%d malformed=%d processed=%d suspects=%d attacks=%d promotions=%d",
				recv, malformed, st.Processed, st.Suspects, st.Attacks, st.Promotions)
		case <-ctx.Done():
			log.Printf("shutting down: draining in-flight flows")
			return shutdown(collector, engine, clusterNode, ckpt, capture, sender, admin)
		}
	}
}

// shutdown tears the daemon down in dependency order: flip /healthz to
// draining, stop ingest and join the receive loops, drain every queued
// flow through the analysis shards (emitting their alerts), stop cluster
// replication — after the drain, so the final replication round a peer
// pulls includes drain-time promotions — flush the final state
// checkpoint, then the capture archive and the alert connection, and
// finally stop the admin server — last, so /metrics stays scrapable
// through the drain. The first error is reported; later stages still
// run.
func shutdown(collector ingester, engine *analysis.ParallelEngine, clusterNode *cluster.Node, ckpt *checkpoint.Manager, capture *flowtools.Capture, sender *idmef.Sender, admin *adminServer) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if admin != nil {
		admin.setDraining()
	}
	keep(collector.Close())
	keep(engine.Close())
	if clusterNode != nil {
		keep(clusterNode.Close())
	}
	if ckpt != nil {
		keep(ckpt.Close())
	}
	if capture != nil {
		keep(capture.Close())
	}
	if sender != nil {
		keep(sender.Close())
	}
	st := engine.Stats()
	log.Printf("drained: processed=%d suspects=%d attacks=%d promotions=%d",
		st.Processed, st.Suspects, st.Attacks, st.Promotions)
	if admin != nil {
		keep(admin.Close())
	}
	return firstErr
}

func parsePorts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 0 || p > 65535 {
			return nil, fmt.Errorf("bad port %q", part)
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
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("create model %s: %w", path, err)
		}
		defer f.Close()
		if err := d.Save(f); err != nil {
			return nil, err
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
	recs := make([]flow.Record, 0, flows)
	cacheRecs, err := flowsFromTrace(pkts)
	if err != nil {
		return nil, err
	}
	recs = append(recs, cacheRecs...)
	return nns.Train(nns.DetectorConfig{}, recs)
}
