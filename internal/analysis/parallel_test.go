package analysis

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/scan"
	"infilter/internal/testutil"
	"infilter/internal/trace"
)

// parallelWorkload is a deterministic dual-stack multi-ingress replay:
// per-peer training traffic plus a per-peer stream mixing expected flows,
// benign suspects from an unexpected block (driving NNS assessment and
// EIA promotion) and exploit flows from a spoofed source, each in both
// address families.
type parallelWorkload struct {
	cfg     Config
	labeled []LabeledRecord // training set
	streams map[eia.PeerAS][]flow.Record
}

const workloadPeers = 8

// buildParallelWorkload keeps every peer's address space disjoint (sources
// in distinct /8s, suspects confined to one /24 per peer) so the only
// cross-peer coupling is through the shared EIA trie and detector — the
// state the ParallelEngine must make safe. Scan thresholds are set beyond
// reach: the serial engine shares one suspect buffer across peers while
// the sharded engine keeps one per shard, so scan verdicts are the one
// stage whose outcome legitimately depends on global interleaving order
// (its concurrent behavior is covered by TestParallelEngineScanDetection).
func buildParallelWorkload(t *testing.T) parallelWorkload {
	t.Helper()
	cfg := Config{
		Mode: ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 4},
		Scan: scan.Config{NetworkScanThreshold: math.MaxInt32, HostScanThreshold: math.MaxInt32},
	}
	w := parallelWorkload{cfg: cfg, streams: make(map[eia.PeerAS][]flow.Record)}
	for p := 1; p <= workloadPeers; p++ {
		peer := eia.PeerAS(p)
		trainPfx := netaddr.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", 20+p))
		suspectPfx := netaddr.MustParsePrefix(fmt.Sprintf("%d.77.4.0/24", 120+p))

		// The v6 side reuses v4-generated flows with their addresses moved
		// into per-peer /48s (NNS never looks at addresses): one trained
		// site, one unexpected site that gets promoted at /48.
		trainPfx6 := netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x::/48", p))
		suspectPfx6 := netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x::/48", 0x100+p))

		train := flowsFromPackets(t, int64(p), 250, trainPfx)
		train = append(train, asV6(flowsFromPackets(t, int64(50+p), 40, trainPfx), trainPfx6)...)
		for _, r := range train {
			w.labeled = append(w.labeled, LabeledRecord{Peer: peer, Record: r})
		}
		var stream []flow.Record
		// Expected flows (mostly Match — the cheap path).
		stream = append(stream, flowsFromPackets(t, int64(100+p), 50, trainPfx)...)
		stream = append(stream, asV6(flowsFromPackets(t, int64(150+p), 20, trainPfx), trainPfx6)...)
		// Benign suspects from one unexpected /24 and one unexpected /48:
		// NNS-assessed, vouched, promoted after the threshold, then
		// Matching.
		stream = append(stream, flowsFromPackets(t, int64(200+p), 60, suspectPfx)...)
		stream = append(stream, asV6(flowsFromPackets(t, int64(250+p), 30, suspectPfx), suspectPfx6)...)
		// Exploit flows from a spoofed, untrained source.
		exploit := attackFlowRecords(t, trace.AttackHTTPExploit, int64(300+p), fmt.Sprintf("%d.9.9.9", 200+p))
		stream = append(stream, exploit...)
		stream = append(stream, asV6(exploit, netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x::/48", 0x200+p)))...)
		w.streams[peer] = stream
	}
	return w
}

// asV6 returns copies of recs with their endpoints moved into IPv6: each
// source keeps its low 32 bits inside site (a /48), each destination
// inside one fixed target site.
func asV6(recs []flow.Record, site netaddr.Prefix) []flow.Record {
	into := func(base netaddr.Addr, a netaddr.Addr) netaddr.Addr {
		b := base.As16()
		v4, _ := a.V4()
		b[12], b[13], b[14], b[15] = byte(v4>>24), byte(v4>>16), byte(v4>>8), byte(v4)
		return netaddr.AddrFrom16(b)
	}
	target := netaddr.MustParseAddr("2001:db8:ffff::")
	out := make([]flow.Record, len(recs))
	for i, r := range recs {
		r.Key.Src = into(site.Addr(), r.Key.Src)
		r.Key.Dst = into(target, r.Key.Dst)
		out[i] = r
	}
	return out
}

// freshTrainedSet rebuilds the EIA set exactly as Train does, so serial
// and parallel engines start from identical state without retraining the
// (shared, read-only) NNS detector.
func freshTrainedSet(cfg Config, labeled []LabeledRecord) *eia.Set {
	set := eia.NewSet(cfg.EIA)
	obs := make([]eia.TrainingSource, len(labeled))
	for i, lr := range labeled {
		obs[i] = eia.TrainingSource{Peer: lr.Peer, Src: lr.Record.Key.Src}
	}
	set.Train(obs, 0)
	return set
}

// TestParallelEngineMatchesSerial is the concurrency stress test: one
// goroutine per peer replays its stream through the sharded engine while
// the serial engine processes the same flows in a fixed round-robin
// interleave; the merged verdict counters must be identical. Run under
// -race this also exercises every shared-state lock in the hot path.
func TestParallelEngineMatchesSerial(t *testing.T) {
	w := buildParallelWorkload(t)

	serial, err := Train(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	var serialAlerts int
	serial.SetAlertSink(func(a idmef.Alert) { serialAlerts++ })

	// Round-robin over the peers, preserving each peer's flow order —
	// one legal global interleaving of the same per-peer streams the
	// concurrent replay produces.
	for i := 0; ; i++ {
		any := false
		for p := 1; p <= workloadPeers; p++ {
			stream := w.streams[eia.PeerAS(p)]
			if i < len(stream) {
				serial.ProcessBatch(eia.PeerAS(p), stream[i:i+1], nil)
				any = true
			}
		}
		if !any {
			break
		}
	}
	want := serial.Stats()

	for _, shards := range []int{1, 3, workloadPeers} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pe, err := NewParallelEngine(
				ParallelConfig{Config: w.cfg, Shards: shards, QueueDepth: 16},
				freshTrainedSet(w.cfg, w.labeled), serial.Detector())
			if err != nil {
				t.Fatal(err)
			}
			var alerts atomic.Int64
			pe.SetAlertSink(func(a idmef.Alert) { alerts.Add(1) })

			var wg sync.WaitGroup
			for p := 1; p <= workloadPeers; p++ {
				wg.Add(1)
				go func(peer eia.PeerAS) {
					defer wg.Done()
					for _, r := range w.streams[peer] {
						if err := pe.SubmitBatch(peer, []flow.Record{r}); err != nil {
							t.Errorf("SubmitBatch: %v", err)
							return
						}
					}
				}(eia.PeerAS(p))
			}
			wg.Wait()
			pe.Flush()
			got := pe.Stats()
			if err := pe.Close(); err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel stats = %+v, serial = %+v", got, want)
			}
			if int(alerts.Load()) != serialAlerts {
				t.Errorf("parallel alerts = %d, serial = %d", alerts.Load(), serialAlerts)
			}
			// The workload must actually exercise every interesting path.
			if want.Attacks == 0 || want.Promotions == 0 || want.Suspects == 0 {
				t.Errorf("degenerate workload: %+v", want)
			}
		})
	}
}

// TestParallelEngineScanDetection drives the scan stage through the
// sharded pipeline: a single peer's probe storm stays on one shard in
// FIFO order, so the per-shard scan buffer must flag it exactly as the
// serial analyzer would.
func TestParallelEngineScanDetection(t *testing.T) {
	cfg := Config{Mode: ModeEnhanced}
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 900, peer1Pfx) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	serial, err := Train(cfg, labeled)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelEngine(ParallelConfig{Config: cfg, Shards: 4},
		freshTrainedSet(cfg, labeled), serial.Detector())
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()

	probes := attackFlowRecords(t, trace.AttackSlammer, 7, "198.51.100.17")
	serial.ProcessBatch(2, probes, nil)
	for _, r := range probes {
		if err := pe.SubmitBatch(2, []flow.Record{r}); err != nil {
			t.Fatal(err)
		}
	}
	pe.Flush()
	got, want := pe.Stats(), serial.Stats()
	if got.ByStage[idmef.StageScan] == 0 {
		t.Error("sharded scan stage never fired")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parallel stats = %+v, serial = %+v", got, want)
	}
}

func TestParallelEngineCloseSemantics(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	pe, err := NewParallelEngine(ParallelConfig{Config: Config{Mode: ModeBasic}}, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := flow.Record{Key: flow.Key{Src: netaddr.MustParseAddr("61.1.1.1")}}
	if err := pe.SubmitBatch(1, []flow.Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	// Queued flows were drained before Close returned.
	if st := pe.Stats(); st.Processed != 1 {
		t.Errorf("Processed = %d after Close, want 1", st.Processed)
	}
	if err := pe.SubmitBatch(1, []flow.Record{rec}); err != ErrEngineClosed {
		t.Errorf("SubmitBatch after Close = %v, want ErrEngineClosed", err)
	}
	if err := pe.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestParallelEngineValidation(t *testing.T) {
	if _, err := NewParallelEngine(ParallelConfig{}, nil, nil); err == nil {
		t.Error("nil EIA set: want error")
	}
	if _, err := NewParallelEngine(ParallelConfig{}, eia.NewSet(eia.Config{}), nil); err == nil {
		t.Error("EI without detector: want error")
	}
	pe, err := NewParallelEngine(
		ParallelConfig{Config: Config{Mode: ModeBasic}}, eia.NewSet(eia.Config{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if pe.Shards() <= 0 {
		t.Errorf("defaulted Shards = %d", pe.Shards())
	}
}

// TestParallelEngineWorkerLeak cycles the shard workers and fails on any
// goroutine left behind.
func TestParallelEngineWorkerLeak(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	rec := flow.Record{Key: flow.Key{Src: netaddr.MustParseAddr("99.1.1.1")}}
	testutil.ExpectNoGoroutineGrowth(t, func() {
		for i := 0; i < 5; i++ {
			pe, err := NewParallelEngine(
				ParallelConfig{Config: Config{Mode: ModeBasic}, Shards: 6}, set, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 20; j++ {
				if err := pe.SubmitBatch(eia.PeerAS(j%4+1), []flow.Record{rec}); err != nil {
					t.Fatal(err)
				}
			}
			if err := pe.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
