package analysis

import (
	"bufio"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/nns"
	"infilter/internal/telemetry"
)

// promScrape encodes the registry and parses it back into series → value.
func promScrape(t *testing.T, r *telemetry.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries totals every series of one family (summing across labels).
func sumSeries(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestParallelEngineMetrics replays the stress workload through an
// instrumented engine and checks the scraped counters against the
// engine's own Stats — the same invariants the /metrics endpoint must
// satisfy in the daemon's end-to-end test, minus the network.
func TestParallelEngineMetrics(t *testing.T) {
	w := buildParallelWorkload(t)
	serial, err := Train(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	reg := telemetry.NewRegistry()
	pm := NewPipelineMetrics(reg, shards)
	serial.Detector().SetMetrics(nns.NewMetrics(reg))
	pe, err := NewParallelEngine(
		ParallelConfig{Config: w.cfg, Shards: shards, QueueDepth: 16, Metrics: pm},
		freshTrainedSet(w.cfg, w.labeled), serial.Detector())
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()

	var wg sync.WaitGroup
	var total int
	for p := 1; p <= workloadPeers; p++ {
		total += len(w.streams[eia.PeerAS(p)])
		wg.Add(1)
		go func(peer eia.PeerAS) {
			defer wg.Done()
			for _, r := range w.streams[peer] {
				if err := pe.Submit(peer, r); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(eia.PeerAS(p))
	}
	wg.Wait()
	pe.Flush()
	st := pe.Stats()
	m := promScrape(t, reg)

	if got := sumSeries(m, "infilter_pipeline_flows_total"); got != float64(total) {
		t.Errorf("flows_total = %v, want %d", got, total)
	}
	hits := sumSeries(m, "infilter_eia_hits_total")
	misses := sumSeries(m, "infilter_eia_misses_total")
	if int(misses) != st.Suspects {
		t.Errorf("eia_misses_total = %v, Stats.Suspects = %d", misses, st.Suspects)
	}
	if int(hits+misses) != st.Processed {
		t.Errorf("eia hits+misses = %v, Stats.Processed = %d", hits+misses, st.Processed)
	}
	if got := sumSeries(m, "infilter_eia_promotions_total"); int(got) != st.Promotions {
		t.Errorf("promotions_total = %v, Stats.Promotions = %d", got, st.Promotions)
	}
	if got := m[`infilter_pipeline_stage_latency_seconds_count{stage="eia"}`]; got != float64(total) {
		t.Errorf("eia stage latency count = %v, want %d", got, total)
	}
	nnsQueries := m["infilter_nns_queries_total"]
	if nnsQueries == 0 {
		t.Error("workload never reached the NNS stage")
	}
	if got := m[`infilter_pipeline_stage_latency_seconds_count{stage="nns"}`]; got != nnsQueries {
		t.Errorf("nns stage latency count = %v, nns_queries_total = %v", got, nnsQueries)
	}
	// The stage vocabulary is the paper's suspect path plus the TTL
	// second opinion, and nothing else.
	const stagePrefix = `infilter_pipeline_stage_latency_seconds_count{stage="`
	var stages []string
	for k := range m {
		if strings.HasPrefix(k, "infilter_heavyhitter_") {
			t.Errorf("retired family still registered: %s", k)
		}
		if s, ok := strings.CutPrefix(k, stagePrefix); ok {
			stages = append(stages, strings.TrimSuffix(s, `"}`))
		}
	}
	slices.Sort(stages)
	if want := []string{"eia", "nns", "scan", "ttl"}; !slices.Equal(stages, want) {
		t.Errorf("stage latency series = %v, want %v", stages, want)
	}
	// Every queue is drained after Flush.
	for i := 0; i < shards; i++ {
		key := `infilter_pipeline_queue_depth{shard="` + strconv.Itoa(i) + `"}`
		if v, ok := m[key]; !ok {
			t.Errorf("missing %s", key)
		} else if v != 0 {
			t.Errorf("%s = %v after Flush", key, v)
		}
	}
}

func TestParallelEngineMetricsShardMismatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	pm := NewPipelineMetrics(reg, 2)
	set := eia.NewSet(eia.Config{})
	_, err := NewParallelEngine(
		ParallelConfig{Config: Config{Mode: ModeBasic}, Shards: 4, Metrics: pm}, set, nil)
	if err == nil {
		t.Fatal("shard/metrics mismatch: want error")
	}
}

func TestNewPipelineMetricsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-positive shard count")
		}
	}()
	NewPipelineMetrics(telemetry.NewRegistry(), 0)
}
