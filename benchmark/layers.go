package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/flowtools"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// This is the only file that calls into the program's layers. It holds
//
//   - the reference pass: the corpus run, untimed, through the layers in the
//     order analysis.decideVerdict runs them, which yields the alerts the
//     daemon must raise and the input stream each layer actually sees;
//   - the traced probe: each of those streams replayed, timed, into a fresh
//     instance of its layer through the layer's public entry point.
//
// The entry points used are netflow.Decode, flowtools.New,
// analysis.NewParallelEngine/SubmitBatch/Flush, eia.ReadInto/NewStore/
// Store.Check/Store.RecordLegal, scan.New/Analyzer.Add,
// scan.NewTTLProfile/Observe, nns.LoadDetector/Detector.Assess/
// Encoder.EncodeRecord and idmef.NewAlert/Marshal/Dial/Sender.Send, plus the
// constructors of their arguments. A PR that renames one of them is
// preceded by a benchmark issue.

// The daemon under test runs with these settings (see daemon.go for the
// command line); the reference and the probe build their layers to match.
const (
	daemonTTLTolerance = 2
	daemonBloomBits    = 10 // infilterd's -eia-bloom-bits-per-entry default
	engineBatch        = flowtools.DefaultBatchRecords
	chunkCalls         = 256 // calls one chunk span of the probe covers
)

func daemonEngineConfig() analysis.Config {
	return analysis.Config{
		Mode: analysis.ModeEnhanced,
		TTL:  scan.TTLConfig{Tolerance: daemonTTLTolerance},
	}
}

func loadEIASet(eiaText []byte) (*eia.Set, error) {
	set := eia.NewSet(eia.Config{BloomBitsPerEntry: daemonBloomBits})
	if err := eia.ReadInto(set, bytes.NewReader(eiaText)); err != nil {
		return nil, fmt.Errorf("load EIA plan: %w", err)
	}
	return set, nil
}

func loadDetector(modelPath string) (*nns.Detector, error) {
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := nns.LoadDetector(f)
	if err != nil {
		return nil, fmt.Errorf("load model %s: %w", modelPath, err)
	}
	return d, nil
}

// expectedAlert is one alert the daemon must raise: the stage that flags
// the flow and where in the run its datagram is sent, from which the paced
// phase derives the time the datagram was due.
type expectedAlert struct {
	stage idmef.Stage
	phase phase
	peer  uint8 // stream index
	pos   int32 // position in the phase's schedule
}

// phaseCounts is what one phase of the reference pass did, layer by layer.
type phaseCounts struct {
	records, suspects, scanFlagged    int
	nnsQueries, ttlChecks, promotions int
	vouched                           int
	byStage                           map[idmef.Stage]int
}

func (a *phaseCounts) add(b *phaseCounts) {
	a.records += b.records
	a.suspects += b.suspects
	a.scanFlagged += b.scanFlagged
	a.nnsQueries += b.nnsQueries
	a.ttlChecks += b.ttlChecks
	a.promotions += b.promotions
	a.vouched += b.vouched
	for st, n := range b.byStage {
		a.byStage[st] += n
	}
}

func (c *phaseCounts) alerts() int {
	n := 0
	for _, v := range c.byStage {
		n += v
	}
	return n
}

// Caps on the streams the probe replays: enough calls for a stable mean,
// few enough that a traced run stays short.
const (
	capEIA   = 400_000
	capScan  = 100_000
	capNNS   = 20_000
	capTTL   = 400_000
	capLegal = 50_000
	capAlert = 10_000
)

type srcTTL struct {
	src netaddr.Addr
	ttl uint8
}

type alertArgs struct {
	stage    idmef.Stage
	peer     eia.PeerAS
	key      flow.Key
	distance int
}

// layerStreams are the saturate-phase inputs of each layer, as the
// reference pass saw them, per live peer where the layer is per shard.
type layerStreams struct {
	eia   [livePeers][]netaddr.Addr
	scan  [livePeers][]flow.Record
	legal [livePeers][]netaddr.Addr
	nns   []flow.Record
	ttl   []srcTTL
	alert []alertArgs
}

type reference struct {
	expected   map[alertKey]expectedAlert
	duplicates int // flagged flows whose key an earlier flagged flow had
	counts     [numPhases]phaseCounts
	streams    *layerStreams // nil unless recording for the probe
}

// alertsThrough is how many alerts the daemon has raised once it is done
// with phase p.
func (r *reference) alertsThrough(p phase) int {
	n := 0
	for q := phaseWarmup; q <= p; q++ {
		n += r.counts[q].alerts()
	}
	return n
}

// refShard is one daemon shard as the reference models it: its own scan
// analyzer, and the EIA store, TTL profiles and detector it shares.
type refShard struct {
	peer    eia.PeerAS
	store   *eia.Store
	ttl     *scan.TTLProfile
	det     *nns.Detector
	scanner *scan.Analyzer
	counts  *phaseCounts
	rec     *layerStreams
	idx     int
	mu      *sync.Mutex // guards the shared streams of rec
}

func (s *refShard) ttlTrips(r *flow.Record) bool {
	if r.TTL == 0 {
		return false
	}
	s.counts.ttlChecks++
	if s.rec != nil {
		s.mu.Lock()
		if len(s.rec.ttl) < capTTL {
			s.rec.ttl = append(s.rec.ttl, srcTTL{r.Key.Src, r.TTL})
		}
		s.mu.Unlock()
	}
	return s.ttl.Observe(r.Key.Src, r.TTL)
}

// decide runs one flow through the stages in the order
// analysis.decideVerdict does and returns the stage that flags it, or "".
func (s *refShard) decide(r *flow.Record) (idmef.Stage, int) {
	c, rec := s.counts, s.rec
	c.records++
	if rec != nil && len(rec.eia[s.idx]) < capEIA {
		rec.eia[s.idx] = append(rec.eia[s.idx], r.Key.Src)
	}
	if s.store.Check(s.peer, r.Key.Src) == eia.Match {
		if s.ttlTrips(r) {
			return idmef.StageTTL, 0
		}
		return "", 0
	}
	c.suspects++
	if rec != nil && len(rec.scan[s.idx]) < capScan {
		rec.scan[s.idx] = append(rec.scan[s.idx], *r)
	}
	if s.scanner.Add(*r).Attack() {
		c.scanFlagged++
		return idmef.StageScan, 0
	}
	c.nnsQueries++
	if rec != nil {
		s.mu.Lock()
		if len(rec.nns) < capNNS {
			rec.nns = append(rec.nns, *r)
		}
		s.mu.Unlock()
	}
	a := s.det.Assess(*r)
	if a.Anomalous {
		return idmef.StageNNS, a.Distance
	}
	if s.ttlTrips(r) {
		return idmef.StageTTL, a.Distance
	}
	c.vouched++
	if rec != nil && len(rec.legal[s.idx]) < capLegal {
		rec.legal[s.idx] = append(rec.legal[s.idx], r.Key.Src)
	}
	if s.store.RecordLegal(s.peer, r.Key.Src) {
		c.promotions++
	}
	return "", 0
}

// decodeStream decodes a peer stream's phases in send order and hands each
// datagram's records to fn until fn returns false. The records alias the
// decode buffer.
func decodeStream(s *peerStream, phases []phase, fn func(p phase, pos int, recs []flow.Record) bool) error {
	db := netflow.NewDecodeBuffer(nil)
	db.SetExporter("bench")
	cur := cursor{s: s}
	for _, p := range phases {
		for pos, idx := range s.sched[p] {
			msg, err := netflow.Decode(cur.next(idx).raw, db)
			if err != nil {
				return fmt.Errorf("decode %s datagram %d of peer %d: %w", p, pos, s.peer, err)
			}
			if len(msg.Records) > 0 && !fn(p, pos, msg.Records) {
				return nil
			}
		}
	}
	return nil
}

// runReference feeds the whole corpus through the staged layers. The two
// live peers run concurrently, as the daemon's two shards do; that is safe
// for the same reason it is safe in the daemon (disjoint sources).
func runReference(co *corpus, modelPath string, record bool) (*reference, error) {
	set, err := loadEIASet(co.eiaText)
	if err != nil {
		return nil, err
	}
	det, err := loadDetector(modelPath)
	if err != nil {
		return nil, err
	}
	ref := &reference{expected: make(map[alertKey]expectedAlert)}
	if record {
		ref.streams = &layerStreams{}
	}
	store := eia.NewStore(set)
	ttl := scan.NewTTLProfile(daemonEngineConfig().TTL)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		locals [livePeers]struct {
			expected   map[alertKey]expectedAlert
			duplicates int
			counts     [numPhases]phaseCounts
			err        error
		}
	)
	for idx := range co.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &locals[idx]
			l.expected = make(map[alertKey]expectedAlert)
			for p := range l.counts {
				l.counts[p].byStage = make(map[idmef.Stage]int)
			}
			sh := &refShard{
				peer: co.streams[idx].peer, store: store, ttl: ttl, det: det,
				scanner: scan.New(daemonEngineConfig().Scan), idx: idx, mu: &mu,
			}
			l.err = decodeStream(&co.streams[idx], []phase{phaseWarmup, phaseSaturate, phasePaced},
				func(p phase, pos int, recs []flow.Record) bool {
					sh.counts, sh.rec = &l.counts[p], nil
					if p == phaseSaturate {
						sh.rec = ref.streams
					}
					for i := range recs {
						stage, dist := sh.decide(&recs[i])
						if stage == "" {
							continue
						}
						l.counts[p].byStage[stage]++
						k := keyOf(recs[i].Key)
						if _, dup := l.expected[k]; dup {
							l.duplicates++
						}
						l.expected[k] = expectedAlert{stage: stage, phase: p, peer: uint8(idx), pos: int32(pos)}
						if sh.rec != nil {
							mu.Lock()
							if len(sh.rec.alert) < capAlert {
								sh.rec.alert = append(sh.rec.alert, alertArgs{stage, sh.peer, recs[i].Key, dist})
							}
							mu.Unlock()
						}
					}
					return true
				})
		}()
	}
	wg.Wait()
	for p := range ref.counts {
		ref.counts[p].byStage = make(map[idmef.Stage]int)
	}
	for i := range locals {
		l := &locals[i]
		if l.err != nil {
			return nil, l.err
		}
		for k, v := range l.expected {
			if _, dup := ref.expected[k]; dup {
				ref.duplicates++
			}
			ref.expected[k] = v
		}
		ref.duplicates += l.duplicates
		for p := range l.counts {
			ref.counts[p].add(&l.counts[p])
		}
	}
	if n := ttl.Sources(); n >= scan.DefaultTTLMaxSources {
		// At the cap the verdicts would depend on which shard got there
		// first; the corpus is sized to stay well below it.
		return nil, fmt.Errorf("reference: TTL profile table reached its cap (%d sources)", n)
	}
	return ref, nil
}

// engineAlerts runs the corpus through analysis.ParallelEngine, configured
// as the daemon configures it, and returns the alerts per stage. Tests use
// it to hold the staged reference to the real engine.
func engineAlerts(co *corpus, modelPath string) (map[idmef.Stage]int, analysis.Stats, error) {
	eng, err := newProbeEngine(co.eiaText, modelPath)
	if err != nil {
		return nil, analysis.Stats{}, err
	}
	defer eng.Close()
	var mu sync.Mutex
	byStage := make(map[idmef.Stage]int)
	eng.SetAlertSink(func(a idmef.Alert) {
		mu.Lock()
		byStage[a.Assessment.Stage]++
		mu.Unlock()
	})
	for i := range co.streams {
		s := &co.streams[i]
		err := decodeStream(s, []phase{phaseWarmup, phaseSaturate, phasePaced}, func(_ phase, _ int, recs []flow.Record) bool {
			eng.SubmitBatch(s.peer, recs)
			return true
		})
		if err != nil {
			return nil, analysis.Stats{}, err
		}
	}
	eng.Flush()
	return byStage, eng.Stats(), nil
}

func newProbeEngine(eiaText []byte, modelPath string) (*analysis.ParallelEngine, error) {
	set, err := loadEIASet(eiaText)
	if err != nil {
		return nil, err
	}
	det, err := loadDetector(modelPath)
	if err != nil {
		return nil, err
	}
	// The daemon's engine is instrumented, and the stage clocks are part
	// of what it costs per record, so the probe's engine is too.
	reg := telemetry.NewRegistry()
	det.SetMetrics(nns.NewMetrics(reg))
	return analysis.NewParallelEngine(analysis.ParallelConfig{
		Config:  daemonEngineConfig(),
		Shards:  livePeers,
		Metrics: analysis.NewPipelineMetrics(reg, livePeers),
	}, set, det)
}

// layerRun is one fresh instance of a layer ready to be replayed into.
type layerRun struct {
	call   func(i int)
	finish func() // last step inside the timed region; may be nil
	close  func() // teardown after timing; may be nil
}

// passResult is what one replay without chunk spans measured.
type passResult struct {
	calls   int
	wall    time.Duration
	cpu     time.Duration // whole process
	selfCPU time.Duration // the calling thread alone (0 where unsupported)
	mallocs uint64
}

func (r passResult) wallNS() float64 {
	if r.calls == 0 {
		return 0
	}
	return float64(r.wall.Nanoseconds()) / float64(r.calls)
}

func (r passResult) allocs() float64 {
	if r.calls == 0 {
		return 0
	}
	return float64(r.mallocs) / float64(r.calls)
}

type probe struct {
	tr               *tracer
	root             int
	traced, untraced time.Duration
}

// pass replays calls calls into a fresh layer instance twice: first with
// one span per chunk of chunkCalls calls, then with the spans off. The
// second replay is the measurement; the difference between the two is the
// tracing overhead.
func (p *probe) pass(name string, calls int, fresh func() (layerRun, error)) (passResult, error) {
	res := passResult{calls: calls}
	if calls == 0 {
		return res, nil
	}
	for _, spans := range []bool{true, false} {
		run, err := fresh()
		if err != nil {
			return res, fmt.Errorf("probe %s: %w", name, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0, self0 := processCPU(), threadCPU()
		t0 := time.Now()
		if spans {
			id := p.tr.start(name, p.root)
			for c := 0; c < calls; c += chunkCalls {
				sp := p.tr.start(name+"/chunk", id)
				for i := c; i < min(c+chunkCalls, calls); i++ {
					run.call(i)
				}
				p.tr.end(sp)
			}
			if run.finish != nil {
				run.finish()
			}
			p.tr.end(id)
			p.traced += time.Since(t0)
		} else {
			for i := 0; i < calls; i++ {
				run.call(i)
			}
			if run.finish != nil {
				run.finish()
			}
			res.wall = time.Since(t0)
			res.cpu, res.selfCPU = processCPU()-cpu0, threadCPU()-self0
			runtime.ReadMemStats(&after)
			res.mallocs = after.Mallocs - before.Mallocs
			p.untraced += res.wall
		}
		if run.close != nil {
			run.close()
		}
	}
	return res, nil
}

// probeRecordCap bounds the records the datagram-level passes replay; suspects
// that reach NNS cost two orders of magnitude more than a benign record.
func probeRecordCap(m mix) int {
	switch m {
	case mixBenign:
		return 400_000
	case mixScanStorm:
		return 200_000
	default:
		return 60_000
	}
}

// probeResult carries the [P] metrics and what they were measured on.
type probeResult struct {
	metrics map[string]float64
	calls   map[string]int
}

// runProbe replays the workload layer by layer.
func runProbe(co *corpus, ref *reference, modelPath, tracePath string) (*probeResult, error) {
	tr := newTracer()
	p := &probe{tr: tr, root: tr.start(co.spec.Name, -1)}
	out := &probeResult{metrics: make(map[string]float64), calls: make(map[string]int)}
	st := ref.streams
	sat := &ref.counts[phaseSaturate]

	// The datagram-level passes replay a prefix of the saturate phase,
	// the two peers' datagrams alternating as the generator sends them.
	type sent struct {
		peer int
		raw  []byte
		recs int
	}
	var (
		dgs     []sent
		recs    [livePeers][]flow.Record
		warm    [livePeers][]flow.Record
		nRecs   int
		perPeer = probeRecordCap(co.spec.Mix) / livePeers
	)
	for i := range co.streams {
		err := decodeStream(&co.streams[i], []phase{phaseWarmup, phaseSaturate}, func(ph phase, _ int, r []flow.Record) bool {
			if ph == phaseWarmup {
				warm[i] = append(warm[i], r...)
			} else {
				recs[i] = append(recs[i], r...)
			}
			return len(recs[i]) < perPeer
		})
		if err != nil {
			return nil, err
		}
	}
	// Re-walk with the cursor so the replayed bytes carry the sequence
	// numbers the daemon saw. The warm-up's template messages come first.
	var curs [livePeers]cursor
	var took [livePeers]int
	for i := range co.streams {
		curs[i] = cursor{s: &co.streams[i]}
		for _, idx := range co.streams[i].sched[phaseWarmup] {
			if d := curs[i].next(idx); d.recs == 0 {
				dgs = append(dgs, sent{i, bytes.Clone(d.raw), 0})
			}
		}
	}
	templates := len(dgs)
	for pos := 0; ; pos++ {
		more := false
		for i := range co.streams {
			sched := co.streams[i].sched[phaseSaturate]
			if pos < len(sched) && took[i] < perPeer {
				d := curs[i].next(sched[pos])
				dgs = append(dgs, sent{i, bytes.Clone(d.raw), d.recs})
				took[i] += d.recs
				nRecs += d.recs
				more = true
			}
		}
		if !more {
			break
		}
	}

	// netflow: decode.
	decode, err := p.pass("netflow.decode", len(dgs), func() (layerRun, error) {
		dbs := [livePeers]*netflow.DecodeBuffer{netflow.NewDecodeBuffer(nil), netflow.NewDecodeBuffer(nil)}
		return layerRun{call: func(i int) {
			if _, err := netflow.Decode(dgs[i].raw, dbs[dgs[i].peer]); err != nil {
				panic(err) // the reference pass decoded these very bytes
			}
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["netflow.decode_ns_per_record"] = float64(decode.wall.Nanoseconds()) / float64(nRecs)
	out.metrics["netflow.decode_allocs_per_datagram"] = decode.allocs()
	out.metrics["netflow.records_per_datagram"] = float64(nRecs) / float64(len(dgs)-templates)
	out.calls["netflow.decode"] = len(dgs)

	// flowtools: the same datagrams over loopback UDP into a collector
	// whose handler only counts, closed loop on that count. The sending
	// goroutine is pinned to its thread for this pass, so the thread's own
	// CPU time (the generator's cost) can be taken out of the process's.
	runtime.LockOSThread()
	ingest, err := p.pass("flowtools.ingest", len(dgs), func() (layerRun, error) {
		var handled atomic.Int64
		col := flowtools.New(flowtools.Config{ReadBuffer: 4 << 20}, func(b flowtools.Batch) {
			handled.Add(int64(len(b.Records)))
		})
		var conns [livePeers]net.Conn
		for i := range conns {
			port, err := col.Listen(0)
			if err != nil {
				col.Close()
				return layerRun{}, err
			}
			if conns[i], err = net.Dial("udp4", fmt.Sprintf("127.0.0.1:%d", port)); err != nil {
				col.Close()
				return layerRun{}, err
			}
		}
		const window = 16384 // records in flight; well inside the 4 MiB socket buffer
		var sentRecs int64
		return layerRun{
			call: func(i int) {
				for sentRecs-handled.Load() > window {
					runtime.Gosched()
				}
				if _, err := conns[dgs[i].peer].Write(dgs[i].raw); err != nil {
					panic(err)
				}
				sentRecs += int64(dgs[i].recs)
			},
			finish: func() {
				deadline := time.Now().Add(5 * time.Second)
				for handled.Load() < int64(nRecs) && time.Now().Before(deadline) {
					time.Sleep(50 * time.Microsecond)
				}
			},
			close: func() {
				for _, c := range conns {
					c.Close()
				}
				col.Close()
			},
		}, nil
	})
	runtime.UnlockOSThread()
	if err != nil {
		return nil, err
	}
	ingestCPU := ingest.cpu
	if ingest.selfCPU > 0 {
		ingestCPU -= ingest.selfCPU // the sender is the generator's cost, not the collector's
	}
	ingestNS := float64(ingestCPU.Nanoseconds()) / float64(nRecs)
	out.metrics["flowtools.ingest_ns_per_record"] = ingestNS
	out.metrics["flowtools.read_ns_per_record"] = ingestNS - out.metrics["netflow.decode_ns_per_record"]
	out.calls["flowtools.ingest"] = len(dgs)

	// analysis: the decoded records in ingest-sized batches through the
	// sharded engine, after the warm-up has filled its TTL profiles.
	type batch struct {
		peer eia.PeerAS
		recs []flow.Record
	}
	var batches []batch
	for off := 0; ; off += engineBatch {
		more := false
		for i := range recs {
			if off < len(recs[i]) {
				batches = append(batches, batch{co.streams[i].peer, recs[i][off:min(off+engineBatch, len(recs[i]))]})
				more = true
			}
		}
		if !more {
			break
		}
	}
	submit, err := p.pass("analysis.submit", len(batches), func() (layerRun, error) {
		eng, err := newProbeEngine(co.eiaText, modelPath)
		if err != nil {
			return layerRun{}, err
		}
		eng.SetAlertSink(func(idmef.Alert) {})
		for i := range warm {
			for off := 0; off < len(warm[i]); off += engineBatch {
				eng.SubmitBatch(co.streams[i].peer, warm[i][off:min(off+engineBatch, len(warm[i]))])
			}
		}
		eng.Flush()
		return layerRun{
			call:   func(i int) { eng.SubmitBatch(batches[i].peer, batches[i].recs) },
			finish: eng.Flush,
			close:  func() { eng.Close() },
		}, nil
	})
	if err != nil {
		return nil, err
	}
	submitRecs := len(recs[0]) + len(recs[1])
	submitNS := float64(submit.cpu.Nanoseconds()) / float64(submitRecs)
	out.metrics["analysis.submit_ns_per_record"] = submitNS
	out.calls["analysis.submit"] = submitRecs

	// eia: load, then Check over each peer's source stream.
	var set *eia.Set
	t0 := time.Now()
	sp := tr.start("eia.load", p.root)
	if set, err = loadEIASet(co.eiaText); err != nil {
		return nil, err
	}
	eia.NewStore(set)
	tr.end(sp)
	out.metrics["eia.load_s"] = time.Since(t0).Seconds()

	type peerSrc struct {
		peer eia.PeerAS
		src  netaddr.Addr
	}
	merge := func(per [livePeers][]netaddr.Addr) []peerSrc {
		var m []peerSrc
		for off := 0; off < max(len(per[0]), len(per[1])); off++ {
			for i := range per {
				if off < len(per[i]) {
					m = append(m, peerSrc{co.streams[i].peer, per[i][off]})
				}
			}
		}
		return m
	}
	freshStore := func() (*eia.Store, error) {
		set, err := loadEIASet(co.eiaText)
		if err != nil {
			return nil, err
		}
		return eia.NewStore(set), nil
	}
	checks := merge(st.eia)
	check, err := p.pass("eia.check", len(checks), func() (layerRun, error) {
		store, err := freshStore()
		return layerRun{call: func(i int) { store.Check(checks[i].peer, checks[i].src) }}, err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["eia.check_ns"] = check.wallNS()
	out.calls["eia.check"] = check.calls

	legals := merge(st.legal)
	legal, err := p.pass("eia.record_legal", len(legals), func() (layerRun, error) {
		store, err := freshStore()
		return layerRun{call: func(i int) { store.RecordLegal(legals[i].peer, legals[i].src) }}, err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["eia.record_legal_ns"] = legal.wallNS()
	out.calls["eia.record_legal"] = legal.calls

	// scan: each shard's suspects into its own analyzer.
	type peerRec struct {
		peer int
		rec  *flow.Record
	}
	var suspects []peerRec
	for off := 0; off < max(len(st.scan[0]), len(st.scan[1])); off++ {
		for i := range st.scan {
			if off < len(st.scan[i]) {
				suspects = append(suspects, peerRec{i, &st.scan[i][off]})
			}
		}
	}
	scanPass, err := p.pass("scan.add", len(suspects), func() (layerRun, error) {
		an := [livePeers]*scan.Analyzer{scan.New(daemonEngineConfig().Scan), scan.New(daemonEngineConfig().Scan)}
		return layerRun{call: func(i int) { an[suspects[i].peer].Add(*suspects[i].rec) }}, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["scan.add_ns"] = scanPass.wallNS()
	out.metrics["scan.add_allocs"] = scanPass.allocs()
	out.calls["scan.add"] = scanPass.calls

	// nns: Assess over the scan survivors, and the unary encode alone.
	assess, err := p.pass("nns.assess", len(st.nns), func() (layerRun, error) {
		det, err := loadDetector(modelPath)
		return layerRun{call: func(i int) { det.Assess(st.nns[i]) }}, err
	})
	if err != nil {
		return nil, err
	}
	encode, err := p.pass("nns.encode", len(st.nns), func() (layerRun, error) {
		enc := nns.MustDefaultEncoder()
		return layerRun{call: func(i int) { enc.EncodeRecord(st.nns[i]) }}, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["nns.assess_ns"] = assess.wallNS()
	out.metrics["nns.assess_allocs"] = assess.allocs()
	out.metrics["nns.encode_ns"] = encode.wallNS()
	out.calls["nns.assess"] = assess.calls

	// ttl: Observe over the (source, TTL) pairs of both shards.
	observe, err := p.pass("ttl.observe", len(st.ttl), func() (layerRun, error) {
		prof := scan.NewTTLProfile(daemonEngineConfig().TTL)
		return layerRun{call: func(i int) { prof.Observe(st.ttl[i].src, st.ttl[i].ttl) }}, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["ttl.observe_ns"] = observe.wallNS()
	out.calls["ttl.observe"] = observe.calls

	// idmef: build and marshal each alert, then Send to a sink that
	// discards.
	now := time.Now()
	alertOf := func(i int) idmef.Alert {
		a := st.alert[i]
		return idmef.NewAlert("infilter-probe", now, a.stage, int(a.peer), "spoofed-traffic/"+string(a.stage), a.key, a.distance)
	}
	marshal, err := p.pass("idmef.marshal", len(st.alert), func() (layerRun, error) {
		return layerRun{call: func(i int) {
			if _, err := idmef.Marshal(alertOf(i)); err != nil {
				panic(err)
			}
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	send, err := p.pass("idmef.send", len(st.alert), func() (layerRun, error) {
		ln, err := net.Listen("tcp4", "127.0.0.1:0")
		if err != nil {
			return layerRun{}, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if c, err := ln.Accept(); err == nil {
				io.Copy(io.Discard, c)
				c.Close()
			}
		}()
		sender, err := idmef.Dial(ln.Addr().String())
		if err != nil {
			ln.Close()
			<-done
			return layerRun{}, err
		}
		return layerRun{
			call: func(i int) {
				if err := sender.Send(alertOf(i)); err != nil {
					panic(err)
				}
			},
			close: func() {
				sender.Close()
				ln.Close()
				<-done
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.metrics["idmef.marshal_ns"] = marshal.wallNS()
	out.metrics["idmef.marshal_allocs"] = marshal.allocs()
	out.metrics["idmef.send_ns"] = send.wallNS()
	out.calls["idmef.send"] = send.calls

	// What the stages cost per record of this workload, against what the
	// engine cost per record: the difference is hand-off, queues, stats.
	perRecord := func(n int) float64 { return float64(n) / float64(max(sat.records, 1)) }
	stages := out.metrics["eia.check_ns"] +
		out.metrics["scan.add_ns"]*perRecord(sat.suspects) +
		out.metrics["nns.assess_ns"]*perRecord(sat.nnsQueries) +
		out.metrics["ttl.observe_ns"]*perRecord(sat.ttlChecks) +
		out.metrics["eia.record_legal_ns"]*perRecord(sat.vouched)
	out.metrics["analysis.overhead_ns_per_record"] = submitNS - stages
	out.metrics["probe.layers_sum_ns_per_record"] = ingestNS + submitNS + out.metrics["idmef.send_ns"]*perRecord(sat.alerts())

	tr.end(p.root)
	out.metrics["probe.trace_overhead_ratio"] = float64(p.traced) / float64(max(p.untraced, 1))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	return out, nil
}
