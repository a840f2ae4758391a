package analysis

import (
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/testutil"
)

// TestBatchLoopSteadyStateAllocs pins the batch loop's allocation
// budget: once a shard's scratch has grown to the batch width, a
// 256-record batch allocates nothing — which matters because a lone
// record is a one-record batch — whether or not the caller collects its
// decisions. The all-suspect row sends every record through the attack
// tally as well as the hit/miss one.
func TestBatchLoopSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		srcHi uint32 // top octet of every source address
		check func(Stats) bool
	}{
		{"all-Match", 61, func(st Stats) bool { return st.Suspects == 0 && st.Attacks == 0 }},
		{"all-suspect", 70, func(st Stats) bool {
			return st.Suspects == st.Processed && st.ByStage[idmef.StageEIA] == st.Processed
		}},
	} {
		set := eia.NewSet(eia.Config{})
		set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
		eng, err := NewEngine(Config{Mode: ModeBasic}, set, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]flow.Record, 256)
		for i := range recs {
			recs[i] = flow.Record{Key: flow.Key{Src: netaddr.IPv4(tc.srcHi<<24 | uint32(i)).Addr()}}
		}
		eng.ProcessBatch(1, recs, nil) // grow the scratch
		for _, out := range [][]Decision{nil, make([]Decision, len(recs))} {
			if got := testing.AllocsPerRun(100, func() { eng.ProcessBatch(1, recs, out) }); got != 0 {
				t.Errorf("%s batch (decisions collected: %v) allocates %.1f times per batch, want 0", tc.name, out != nil, got)
			}
		}
		if st := eng.Stats(); st.Processed == 0 || !tc.check(st) {
			t.Fatalf("%s batch counted as %+v", tc.name, st)
		}
	}
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
