package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/testutil"
)

// batchSizes are the batch widths the equivalence gate pins: degenerate
// single-record batches, a typical datagram's worth, and batches wide
// enough to span EIA promotions mid-batch (the suspect bursts promote at
// PromoteThreshold 4, so wide runs force the tail re-check path).
var batchSizes = []int{1, 16, 256}

// mixedStream flattens the per-peer streams into the one global
// mixed-peer order the serial reference replays: rounds over the peers,
// each contributing a burst whose length varies from 1 to 90 records, so
// the order has same-peer runs of every width and each peer's own order
// is preserved.
func mixedStream(w parallelWorkload) []LabeledRecord {
	var out []LabeledRecord
	next := make(map[eia.PeerAS]int)
	for round := 0; ; round++ {
		any := false
		for p := 1; p <= workloadPeers; p++ {
			peer := eia.PeerAS(p)
			stream := w.streams[peer]
			burst := 1 + (round*37+p*11)%90
			for ; burst > 0 && next[peer] < len(stream); burst-- {
				out = append(out, LabeledRecord{Peer: peer, Record: stream[next[peer]]})
				next[peer]++
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// forEachRun is how a mixed-peer stream reaches the single-peer batch
// entry points: it cuts stream into chunks of at most size records (what
// one ingest batch would carry) and hands fn every maximal same-peer run
// inside each chunk, in stream order.
func forEachRun(stream []LabeledRecord, size int, fn func(peer eia.PeerAS, recs []flow.Record)) {
	var recs []flow.Record
	for off := 0; off < len(stream); off += size {
		chunk := stream[off:min(off+size, len(stream))]
		for i := 0; i < len(chunk); {
			peer := chunk[i].Peer
			recs = recs[:0]
			for ; i < len(chunk) && chunk[i].Peer == peer; i++ {
				recs = append(recs, chunk[i].Record)
			}
			fn(peer, recs)
		}
	}
}

// alertLog records, per peer, the byte stream of alerts an engine raised:
// stage, endpoints and NNS distance of every flagged flow in emission
// order. One peer's flows stay on one shard in FIFO order, so its stream
// is deterministic at any shard count (the global message id is not, and
// is left out).
type alertLog struct {
	mu     sync.Mutex
	byPeer map[eia.PeerAS][]byte
}

func (l *alertLog) sink(a idmef.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byPeer == nil {
		l.byPeer = make(map[eia.PeerAS][]byte)
	}
	peer := eia.PeerAS(a.Assessment.PeerAS)
	l.byPeer[peer] = fmt.Appendf(l.byPeer[peer], "%s %s:%d>%s:%d d=%d\n", a.Assessment.Stage,
		a.Source.Address, a.Source.Port, a.Target.Address, a.Target.Port, a.Assessment.Distance)
}

// outcome is everything observable about a replay: merged counters, the
// per-peer alert streams, the EIA end-state and, for a serial Engine, the
// per-record decision stream (nil for a ParallelEngine, whose workers
// hand back no decisions).
type outcome struct {
	stats     Stats
	alerts    map[eia.PeerAS][]byte
	eia       []byte
	decisions []Decision
}

func outcomeOf(t *testing.T, e interface {
	Stats() Stats
	EIASet() *eia.Store
}, log *alertLog) outcome {
	t.Helper()
	var eiaState bytes.Buffer
	if _, err := e.EIASet().WriteTo(&eiaState); err != nil {
		t.Fatal(err)
	}
	return outcome{stats: e.Stats(), alerts: log.byPeer, eia: eiaState.Bytes()}
}

// requireSameOutcome fails unless got reproduces want byte for byte and,
// when got carries decisions, decision for decision.
func requireSameOutcome(t *testing.T, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("stats = %+v, reference = %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.alerts, want.alerts) {
		for p := 1; p <= workloadPeers; p++ {
			g, w := got.alerts[eia.PeerAS(p)], want.alerts[eia.PeerAS(p)]
			if !bytes.Equal(g, w) {
				t.Errorf("peer %d alert stream differs from the reference stream:\ngot:\n%s\nwant:\n%s", p, g, w)
				break
			}
		}
	}
	if !bytes.Equal(got.eia, want.eia) {
		t.Error("EIA end-state differs from the reference end-state")
	}
	if got.decisions != nil {
		requireSameDecisions(t, got.decisions, want.decisions)
	}
}

// requireSameDecisions fails at the first record whose Decision (verdict,
// attack, stage, NNS assessment, promotion) differs from the reference.
func requireSameDecisions(t *testing.T, got, want []Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d decisions, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: decision %+v, reference %+v", i, got[i], want[i])
		}
	}
}

// runSerialReference is the reference outcome every replay must
// reproduce: the stream through a serial Engine's batch loop one record
// at a time, so each record is classified against the latest snapshot —
// the per-record semantics.
func runSerialReference(t *testing.T, cfg Config, w parallelWorkload, detector *nns.Detector, stream []LabeledRecord) outcome {
	t.Helper()
	ref := runSerialBatches(t, cfg, w, detector, stream, 1)
	if st := ref.stats; st.Attacks == 0 || st.Suspects == 0 {
		t.Fatalf("degenerate workload: %+v", st)
	}
	return ref
}

// runSerialBatches replays stream through a fresh serial Engine's batch
// loop, as same-peer runs of at most size records, collecting every
// record's Decision.
func runSerialBatches(t *testing.T, cfg Config, w parallelWorkload, detector *nns.Detector, stream []LabeledRecord, size int) outcome {
	t.Helper()
	eng, err := NewEngine(cfg, freshTrainedSet(cfg, w.labeled), detector)
	if err != nil {
		t.Fatal(err)
	}
	var log alertLog
	eng.SetAlertSink(log.sink)
	decisions := make([]Decision, len(stream))
	n := 0
	forEachRun(stream, size, func(peer eia.PeerAS, recs []flow.Record) {
		eng.ProcessBatch(peer, recs, decisions[n:n+len(recs)])
		n += len(recs)
	})
	o := outcomeOf(t, eng, &log)
	o.decisions = decisions
	return o
}

// runParallel feeds a fresh ParallelEngine through feed, drains it and
// returns what it did.
func runParallel(t *testing.T, cfg Config, w parallelWorkload, detector *nns.Detector, shards int, feed func(*ParallelEngine)) outcome {
	t.Helper()
	pe, err := NewParallelEngine(
		ParallelConfig{Config: cfg, Shards: shards, QueueDepth: 16},
		freshTrainedSet(cfg, w.labeled), detector)
	if err != nil {
		t.Fatal(err)
	}
	var log alertLog
	pe.SetAlertSink(log.sink)
	feed(pe)
	pe.Flush()
	got := outcomeOf(t, pe, &log)
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// runPerPeerStreams replays the workload with one submitting goroutine
// per peer, each cutting its own stream into batches of at most size
// records.
func runPerPeerStreams(t *testing.T, cfg Config, w parallelWorkload, detector *nns.Detector, shards, size int) outcome {
	t.Helper()
	return runParallel(t, cfg, w, detector, shards, func(pe *ParallelEngine) {
		var wg sync.WaitGroup
		for p := 1; p <= workloadPeers; p++ {
			wg.Add(1)
			go func(peer eia.PeerAS) {
				defer wg.Done()
				stream := w.streams[peer]
				for off := 0; off < len(stream); off += size {
					if err := pe.SubmitBatch(peer, stream[off:min(off+size, len(stream))]); err != nil {
						t.Errorf("SubmitBatch: %v", err)
						return
					}
				}
			}(eia.PeerAS(p))
		}
		wg.Wait()
	})
}

// runMixedStream replays stream from one goroutine as same-peer runs of
// at most size records.
func runMixedStream(t *testing.T, cfg Config, w parallelWorkload, detector *nns.Detector, stream []LabeledRecord, shards, size int) outcome {
	t.Helper()
	return runParallel(t, cfg, w, detector, shards, func(pe *ParallelEngine) {
		forEachRun(stream, size, func(peer eia.PeerAS, recs []flow.Record) {
			if err := pe.SubmitBatch(peer, recs); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// midRunPromotions counts the promotions that land with records of the
// same run still unconsumed — the case that forces the batch loop to
// re-classify its tail against the new snapshot.
func midRunPromotions(stream []LabeledRecord, decisions []Decision, size int) int {
	n, i := 0, 0
	forEachRun(stream, size, func(_ eia.PeerAS, recs []flow.Record) {
		for j := range recs {
			if decisions[i+j].Promoted && j+1 < len(recs) {
				n++
			}
		}
		i += len(recs)
	})
	return n
}

// TestSerialBatchMatchesPerRecord replays the mixed stream through
// Engine.ProcessBatch at every pinned batch size: counters, per-peer
// alert streams, the EIA end-state and every record's Decision must be
// identical to the one-record-batch reference. The wider sizes span
// promotions, so a pass proves the mid-batch snapshot refresh (tail
// re-check) works.
func TestSerialBatchMatchesPerRecord(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	want := runSerialReference(t, w.cfg, w, detector, stream)

	for _, size := range batchSizes {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			if size > 1 && midRunPromotions(stream, want.decisions, size) == 0 {
				t.Fatal("no promotion lands mid-run: the tail re-check is not exercised")
			}
			requireSameOutcome(t, runSerialBatches(t, w.cfg, w, detector, stream, size), want)
		})
	}
}

// TestParallelBatchMatchesSerial is the batched arm of the concurrency
// stress test: one goroutine per peer replays its stream through
// SubmitBatch in size-bounded chunks, across shard counts. The merged
// counters, per-peer alert streams and EIA end-state must match the
// per-record serial reference, as TestParallelEngineMatchesSerial
// demands of one-record batches.
func TestParallelBatchMatchesSerial(t *testing.T) {
	w := buildParallelWorkload(t)
	detector := mustDetector(t, w)
	want := runSerialReference(t, w.cfg, w, detector, mixedStream(w))

	for _, shards := range []int{1, 3, workloadPeers} {
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				got := runPerPeerStreams(t, w.cfg, w, detector, shards, size)
				requireSameOutcome(t, got, want)
			})
		}
	}
}

// TestMixedStreamMatchesSerial is the equivalence gate in the shape the
// daemon produces: one mixed-peer dual-stack stream, cut into ingest-sized
// chunks and submitted as maximal same-peer runs, against the serial
// per-record reference.
func TestMixedStreamMatchesSerial(t *testing.T) {
	w := buildParallelWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	want := runSerialReference(t, w.cfg, w, detector, stream)

	for _, shards := range []int{1, 3} {
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				got := runMixedStream(t, w.cfg, w, detector, stream, shards, size)
				requireSameOutcome(t, got, want)
			})
		}
	}
}

// TestBatchLoopSteadyStateAllocs pins the batch loop's allocation
// budget: once a shard's scratch has grown to the batch width, an
// all-Match 256-record batch allocates nothing — no per-batch Stats map,
// which matters because a lone record is a one-record batch — whether or
// not the caller collects its decisions.
func TestBatchLoopSteadyStateAllocs(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	eng, err := NewEngine(Config{Mode: ModeBasic}, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]flow.Record, 256)
	for i := range recs {
		recs[i] = flow.Record{Key: flow.Key{Src: netaddr.IPv4(61<<24 | uint32(i)).Addr()}}
	}
	eng.ProcessBatch(1, recs, nil) // grow the scratch
	for _, out := range [][]Decision{nil, make([]Decision, len(recs))} {
		if got := testing.AllocsPerRun(100, func() { eng.ProcessBatch(1, recs, out) }); got != 0 {
			t.Errorf("all-Match batch (decisions collected: %v) allocates %.1f times per batch, want 0", out != nil, got)
		}
	}
	if st := eng.Stats(); st.Suspects != 0 || st.Processed == 0 {
		t.Fatalf("batch was not all-Match: %+v", st)
	}
}

// mustDetector trains the shared read-only NNS detector once per test
// (it is safe to share across engines; only the EIA set mutates).
func mustDetector(t *testing.T, w parallelWorkload) *nns.Detector {
	t.Helper()
	_, detector, err := trainComponents(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	return detector
}

// TestParallelEngineBatchWorkerLeak cycles engines through wide and
// one-record batches — including Close with batches still queued — and
// fails on any worker goroutine left behind.
func TestParallelEngineBatchWorkerLeak(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	recs := make([]flow.Record, 32)
	for i := range recs {
		recs[i] = flow.Record{Key: flow.Key{Src: netaddr.MustParseAddr("99.1.1.1")}}
	}
	testutil.ExpectNoGoroutineGrowth(t, func() {
		for i := 0; i < 5; i++ {
			pe, err := NewParallelEngine(
				ParallelConfig{Config: Config{Mode: ModeBasic}, Shards: 6, QueueDepth: 4}, set, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				if err := pe.SubmitBatch(eia.PeerAS(j%4+1), recs); err != nil {
					t.Fatal(err)
				}
				if err := pe.SubmitBatch(eia.PeerAS(j%5), recs[:1]); err != nil {
					t.Fatal(err)
				}
			}
			// No Flush: Close must drain queued batches and stop cleanly.
			if err := pe.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pe.SubmitBatch(1, recs); err != ErrEngineClosed {
				t.Fatalf("SubmitBatch after Close = %v, want ErrEngineClosed", err)
			}
		}
	})
}
