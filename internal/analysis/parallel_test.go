package analysis

import (
	"reflect"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/testutil"
	"infilter/internal/trace"
)

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
