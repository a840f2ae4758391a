// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: each Benchmark* below corresponds to one
// artifact (see DESIGN.md's per-experiment index) and reports the paper's
// series via b.ReportMetric, so `go test -bench=. -benchmem` reproduces
// the whole evaluation at reduced scale. cmd/experiment and cmd/validate
// print the same series at full scale.
package bench

import (
	"sync"
	"testing"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/bgp"
	"infilter/internal/blocks"
	"infilter/internal/eia"
	"infilter/internal/experiment"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/stats"
	"infilter/internal/topo"
	"infilter/internal/trace"
	"infilter/internal/traceroute"
)

// benchOpts is the reduced-scale configuration the figure benches use.
func benchOpts() experiment.Options {
	return experiment.Options{
		Seed:                 1,
		Runs:                 1,
		NormalFlowsPerSource: 200,
		TrainingFlows:        600,
	}
}

// --- §3.1: Looking Glass traceroute validation ---

func benchmarkTracerouteCampaign(b *testing.B, period, duration time.Duration) {
	b.Helper()
	var res traceroute.Result
	for i := 0; i < b.N; i++ {
		n := topo.New(topo.Config{Seed: 42})
		var err error
		res, err = traceroute.Run(n, traceroute.CampaignConfig{
			Period: period, Duration: duration, CompletionRate: 0.92,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RawChangePct(), "raw_change_%")
	b.ReportMetric(res.SubnetChangePct(), "subnet_change_%")
	b.ReportMetric(res.FQDNChangePct(), "aggregated_change_%")
	b.ReportMetric(float64(res.Samples), "samples")
}

// BenchmarkValidationTraceroute24h reproduces §3.1.1's 24-hour run
// (paper: raw 4.8%, aggregated 0.4%).
func BenchmarkValidationTraceroute24h(b *testing.B) {
	benchmarkTracerouteCampaign(b, 30*time.Minute, 24*time.Hour)
}

// BenchmarkValidationTraceroute4day reproduces §3.1.1's 4-day run
// (paper: raw 6.4%, aggregated 0.6%).
func BenchmarkValidationTraceroute4day(b *testing.B) {
	benchmarkTracerouteCampaign(b, time.Hour, 96*time.Hour)
}

// --- §3.2 / Figure 5: BGP validation ---

// BenchmarkValidationBGPFig5 reproduces Figure 5 (paper: avg source-AS-set
// change 1.6%, max 5%).
func BenchmarkValidationBGPFig5(b *testing.B) {
	var series []bgp.TargetSeries
	for i := 0; i < b.N; i++ {
		var err error
		series, err = bgp.Simulate(bgp.SimConfig{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
	}
	var avgs, maxes []float64
	for _, s := range series {
		avgs = append(avgs, 100*s.AvgChange)
		maxes = append(maxes, 100*s.MaxChange)
	}
	b.ReportMetric(stats.Mean(avgs), "avg_change_%")
	b.ReportMetric(stats.Max(maxes), "max_change_%")
}

// --- Tables 1-3: address-block machinery ---

// BenchmarkTable1Blocks regenerates the 143 public /8 blocks of Table 1.
func BenchmarkTable1Blocks(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(blocks.Table1())
	}
	b.ReportMetric(float64(n), "blocks")
}

// BenchmarkTable2Allocations regenerates Table 2's allocation schedule at
// 2% route change and validates its invariants.
func BenchmarkTable2Allocations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := blocks.NewSchedule(2, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3EIA builds the Table 3 EIA preload (1000 prefixes over
// 10 peer ASes).
func BenchmarkTable3EIA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set := eia.NewSet(eia.Config{})
		for as := 1; as <= blocks.DefaultSources; as++ {
			alloc, err := blocks.EIAAllocation(as)
			if err != nil {
				b.Fatal(err)
			}
			for _, sb := range alloc {
				set.AddPrefix(eia.PeerAS(as), sb.Prefix())
			}
		}
		if set.Len() != blocks.NumUsedSubBlocks {
			b.Fatalf("EIA preload has %d prefixes", set.Len())
		}
	}
}

// --- Figures 15/16: spoofed-attack detection and false positives ---

// BenchmarkFigure15DetectionRate reruns the §6.3.1/§6.3.2 sweep at
// reduced scale (paper: ≈83% single set, ≈70% ten sets, flat in volume).
func BenchmarkFigure15DetectionRate(b *testing.B) {
	var sw *experiment.SpoofedSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.RunSpoofedSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(sw.Volumes) - 1
	b.ReportMetric(sw.Single[last].DetectionRate, "det_single_%")
	b.ReportMetric(sw.Ten[last].DetectionRate, "det_10sets_%")
}

// BenchmarkFigure16FalsePositives reports the same sweep's FP series
// (paper: ≈1.25% single, up to ≈4% ten sets).
func BenchmarkFigure16FalsePositives(b *testing.B) {
	var sw *experiment.SpoofedSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.RunSpoofedSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(sw.Volumes) - 1
	b.ReportMetric(sw.Single[last].FPRate, "fp_single_%")
	b.ReportMetric(sw.Ten[last].FPRate, "fp_10sets_%")
}

// --- Figures 17/18/19: route-change sensitivity ---

func benchmarkRouteChange(b *testing.B, mode analysis.Mode) *experiment.RouteChangeSweep {
	b.Helper()
	var sw *experiment.RouteChangeSweep
	for i := 0; i < b.N; i++ {
		var err error
		sw, err = experiment.RunRouteChangeSweep(benchOpts(), mode)
		if err != nil {
			b.Fatal(err)
		}
	}
	vol8 := len(sw.Volumes) - 1
	rc8 := len(sw.Rates) - 1
	b.ReportMetric(sw.Grid[vol8][0].FPRate, "fp_rc1_%")
	b.ReportMetric(sw.Grid[vol8][rc8].FPRate, "fp_rc8_%")
	return sw
}

// BenchmarkFigure17RouteChangeBI: Basic InFilter FP rises with route
// change (paper: up to ≈7.4% at 8%/8%).
func BenchmarkFigure17RouteChangeBI(b *testing.B) {
	benchmarkRouteChange(b, analysis.ModeBasic)
}

// BenchmarkFigure18RouteChangeEI: Enhanced InFilter FP stays well below
// BI (paper: ≈5.25% at 8%/8%).
func BenchmarkFigure18RouteChangeEI(b *testing.B) {
	benchmarkRouteChange(b, analysis.ModeEnhanced)
}

// BenchmarkFigure19BIvsEI contrasts the two at 8% attack volume and
// reports the EI reduction (paper: ≈30%).
func BenchmarkFigure19BIvsEI(b *testing.B) {
	var biFP, eiFP float64
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		bi, err := experiment.RunRouteChangeSweep(opts, analysis.ModeBasic)
		if err != nil {
			b.Fatal(err)
		}
		ei, err := experiment.RunRouteChangeSweep(opts, analysis.ModeEnhanced)
		if err != nil {
			b.Fatal(err)
		}
		vol8, rc8 := len(bi.Volumes)-1, len(bi.Rates)-1
		biFP, eiFP = bi.Grid[vol8][rc8].FPRate, ei.Grid[vol8][rc8].FPRate
	}
	b.ReportMetric(biFP, "bi_fp_%")
	b.ReportMetric(eiFP, "ei_fp_%")
	if biFP > 0 {
		b.ReportMetric(100*(biFP-eiFP)/biFP, "ei_reduction_%")
	}
}

// --- §6.4: per-flow processing latency ---

// trainedBenchEngine builds an engine plus a stream of suspect flows.
func trainedBenchEngine(b *testing.B, mode analysis.Mode) (*analysis.Engine, []flow.Record) {
	b.Helper()
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 1, Start: start, Flows: 900,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   target,
	})
	if err != nil {
		b.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	var labeled []analysis.LabeledRecord
	for _, r := range cache.Drain() {
		labeled = append(labeled, analysis.LabeledRecord{Peer: 1, Record: r})
	}
	engine, err := analysis.Train(analysis.Config{Mode: mode}, labeled)
	if err != nil {
		b.Fatal(err)
	}

	// Suspect stream: benign flows from an unexpected block (route change).
	suspectPkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 2, Start: start.Add(time.Hour), Flows: 500,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("70.0.0.0/11")},
		DstPrefix:   target,
	})
	if err != nil {
		b.Fatal(err)
	}
	cache2 := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range suspectPkts {
		cache2.Observe(p, 1)
	}
	cache2.FlushAll()
	return engine, cache2.Drain()
}

// BenchmarkLatencyBasic measures BI per-suspect-flow processing (paper:
// ≈0.5 ms on 2005 hardware; the BI≪EI ordering is the reproducible part).
func BenchmarkLatencyBasic(b *testing.B) {
	engine, suspects := trainedBenchEngine(b, analysis.ModeBasic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(suspects)
		engine.ProcessBatch(1, suspects[k:k+1], nil)
	}
}

// BenchmarkLatencyEnhanced measures EI per-suspect-flow processing
// (paper: 2-6 ms; NNS search dominates).
func BenchmarkLatencyEnhanced(b *testing.B) {
	engine, suspects := trainedBenchEngine(b, analysis.ModeEnhanced)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(suspects)
		engine.ProcessBatch(1, suspects[k:k+1], nil)
	}
}

// --- Figure 1 (concept): route stability vs distance from source ---

// BenchmarkFigure1RouteStability measures per-hop change rates along the
// path: transit (IGP-churned) hops flap, the last AS-level hop does not —
// the asymmetry Figure 1 sketches.
func BenchmarkFigure1RouteStability(b *testing.B) {
	var mid, last float64
	for i := 0; i < b.N; i++ {
		n := topo.New(topo.Config{Seed: 3})
		const samples = 300
		var midChanges, lastChanges, comparisons int
		var prev topo.Path
		for s := 0; s < samples; s++ {
			p := n.Traceroute(0, 0)
			if s > 0 {
				comparisons++
				if p.Hops[2].FQDN != prev.Hops[2].FQDN {
					midChanges++
				}
				if p.BRHop().FQDN != prev.BRHop().FQDN {
					lastChanges++
				}
			}
			prev = p
		}
		mid = 100 * float64(midChanges) / float64(comparisons)
		last = 100 * float64(lastChanges) / float64(comparisons)
	}
	b.ReportMetric(mid, "transit_hop_change_%")
	b.ReportMetric(last, "last_hop_change_%")
}

// --- Ablations over the design choices DESIGN.md calls out ---

func buildNNSCluster(b *testing.B, n int) []nns.Levels {
	b.Helper()
	enc := nns.MustDefaultEncoder()
	out := make([]nns.Levels, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, enc.Encode(flow.Stats{
			Bytes:      float64(2000 + i*37%20000),
			Packets:    float64(5 + i%40),
			DurationMS: float64(100 + i*13%2000),
			BitRate:    float64(50000 + i*97%400000),
			PacketRate: float64(5 + i%50),
		}))
	}
	return out
}

// BenchmarkAblationNNSM2 sweeps the trace width M2 (paper fixes 12):
// larger M2 means bigger tables and finer buckets.
func BenchmarkAblationNNSM2(b *testing.B) {
	cluster := buildNNSCluster(b, 120)
	for _, m2 := range []int{8, 12, 16} {
		b.Run(itoa(m2), func(b *testing.B) {
			params := nns.Params{D: nns.DefaultD, M1: 1, M2: m2, M3: 3, Seed: 1}
			st, err := nns.Build(params, cluster)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Search(cluster[i%len(cluster)]); !ok {
					b.Fatal("no neighbor")
				}
			}
		})
	}
}

// BenchmarkAblationNNSBuild measures structure-creation cost growth with
// training-cluster size (the paper's "space polynomial in training size").
func BenchmarkAblationNNSBuild(b *testing.B) {
	for _, n := range []int{50, 150, 400} {
		cluster := buildNNSCluster(b, n)
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nns.Build(nns.DefaultParams(), cluster); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScanBuffer sweeps the suspect-buffer size (paper
// uses 200).
func BenchmarkAblationScanBuffer(b *testing.B) {
	for _, size := range []int{50, 200, 800} {
		b.Run(itoa(size), func(b *testing.B) {
			a := scan.New(scan.Config{BufferSize: size})
			rec := flow.Record{
				Key:     flow.Key{Dst: netaddr.MustParseAddr("192.0.2.1"), DstPort: 1434, Proto: flow.ProtoUDP},
				Packets: 1,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Key.Dst = netaddr.IPv4(0xc0000200 + uint32(i%250)).Addr()
				a.Add(rec)
			}
		})
	}
}

// BenchmarkAblationPartitioning contrasts per-protocol subclusters with a
// single global cluster (§5.1.3(c)'s design choice): it reports how many
// service-exploit flows each variant flags.
func BenchmarkAblationPartitioning(b *testing.B) {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 30, Start: start, Flows: 1200,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   target,
	})
	if err != nil {
		b.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	training := cache.Drain()

	var attackRecs []flow.Record
	for i, at := range []trace.AttackType{
		trace.AttackHTTPExploit, trace.AttackFTPExploit,
		trace.AttackSMTPExploit, trace.AttackDNSExploit,
	} {
		apkts, err := trace.Generate(at, trace.AttackConfig{
			Seed: int64(40 + i), Start: start.Add(time.Hour),
			Src: netaddr.MustParseAddr("70.1.1.1"), DstPrefix: target,
		})
		if err != nil {
			b.Fatal(err)
		}
		c2 := netflow.NewCache(netflow.CacheConfig{})
		for _, p := range apkts {
			c2.Observe(p, 1)
		}
		c2.FlushAll()
		attackRecs = append(attackRecs, c2.Drain()...)
	}

	for _, variant := range []struct {
		name    string
		disable bool
	}{{"partitioned", false}, {"flat", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var hits int
			for i := 0; i < b.N; i++ {
				d, err := nns.Train(nns.DetectorConfig{DisablePartition: variant.disable}, training)
				if err != nil {
					b.Fatal(err)
				}
				hits = 0
				for _, r := range attackRecs {
					if d.Assess(r).Anomalous {
						hits++
					}
				}
			}
			b.ReportMetric(float64(hits), "exploit_flows_flagged")
		})
	}
}

// BenchmarkAblationApproxVsExact contrasts the KOR approximate search with
// the brute-force linear scan: per-query cost of each, and the mean excess
// distance of the approximate neighbor (measured once, outside the timed
// loop). It runs on the synthetic 400-flow cluster and on every subcluster
// the daemon trains — 1 500 normal flows split by protocol, every fifth
// held out for calibration and used here as the queries — so the
// crossover between the two searches shows up by cluster size.
func BenchmarkAblationApproxVsExact(b *testing.B) {
	synthetic := buildNNSCluster(b, 400)
	bench := func(b *testing.B, st *nns.Structure, queries []nns.Levels) {
		excess := 0
		for _, q := range queries {
			a, ok := st.Search(q)
			e, _ := st.ExactSearch(q)
			if !ok {
				b.Fatal("no neighbor")
			}
			excess += a.Distance - e.Distance
		}
		b.Run("approx", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := st.Search(queries[i%len(queries)]); !ok {
					b.Fatal("no neighbor")
				}
			}
			b.ReportMetric(float64(excess)/float64(len(queries)), "excess_bits/op")
		})
		b.Run("exact", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := st.ExactSearch(queries[i%len(queries)]); !ok {
					b.Fatal("no neighbor")
				}
			}
		})
	}
	b.Run("synthetic-400", func(b *testing.B) {
		st, err := nns.Build(nns.DefaultParams(), synthetic)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, st, synthetic)
	})

	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 1, Start: time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC), Flows: 1500,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("0.0.0.0/1")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		b.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	enc := nns.MustDefaultEncoder()
	parts := make(map[flow.Subcluster][]nns.Levels)
	for _, r := range cache.Drain() {
		c := flow.Classify(r.Key)
		parts[c] = append(parts[c], enc.EncodeRecord(r))
	}
	for _, c := range flow.Subclusters() {
		var build, calib []nns.Levels
		for i, v := range parts[c] {
			if i%5 == 4 {
				calib = append(calib, v)
			} else {
				build = append(build, v)
			}
		}
		if len(build) == 0 || len(calib) == 0 {
			continue
		}
		params := nns.DefaultParams()
		params.Seed += int64(c) // as nns.Train seeds each subcluster
		b.Run("daemon-"+c.String()+"-"+itoa(len(build)), func(b *testing.B) {
			st, err := nns.Build(params, build)
			if err != nil {
				b.Fatal(err)
			}
			bench(b, st, calib)
		})
	}
}

// --- Tentpole: sharded parallel analysis throughput ---

// parallelBenchWorkload builds per-peer training flows plus suspect
// streams from unexpected blocks, so every benchmarked flow takes the
// expensive suspect path (scan + NNS). Promotion is disabled so the
// workload stays suspect-heavy no matter how long the benchmark runs.
func parallelBenchWorkload(b *testing.B, peers int) (analysis.Config, []analysis.LabeledRecord, []analysis.LabeledRecord) {
	b.Helper()
	cfg := analysis.Config{
		Mode: analysis.ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 1 << 30},
	}
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	drain := func(seed int64, flows int, prefix string, t time.Time) []flow.Record {
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed: seed, Start: t, Flows: flows,
			SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix(prefix)},
			DstPrefix:   target,
		})
		if err != nil {
			b.Fatal(err)
		}
		cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
		for _, p := range pkts {
			cache.Observe(p, 1)
		}
		cache.FlushAll()
		return cache.Drain()
	}
	var labeled, suspects []analysis.LabeledRecord
	for p := 1; p <= peers; p++ {
		peer := eia.PeerAS(p)
		for _, r := range drain(int64(p), 300, itoa(32+p)+".0.0.0/11", start) {
			labeled = append(labeled, analysis.LabeledRecord{Peer: peer, Record: r})
		}
		for _, r := range drain(int64(100+p), 250, itoa(128+p)+".0.0.0/11", start.Add(time.Hour)) {
			suspects = append(suspects, analysis.LabeledRecord{Peer: peer, Record: r})
		}
	}
	// Round-robin interleave across peers so consecutive submissions land
	// on different shards, as the per-port receive loops would produce.
	byPeer := make(map[eia.PeerAS][]analysis.LabeledRecord)
	for _, s := range suspects {
		byPeer[s.Peer] = append(byPeer[s.Peer], s)
	}
	var interleaved []analysis.LabeledRecord
	for i := 0; ; i++ {
		added := false
		for p := 1; p <= peers; p++ {
			if q := byPeer[eia.PeerAS(p)]; i < len(q) {
				interleaved = append(interleaved, q[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return cfg, labeled, interleaved
}

// BenchmarkParallelPipeline measures Enhanced-InFilter suspect-flow
// throughput of the sharded engine against the serial baseline (§6.4's
// per-flow cost, scaled out): flows/sec grows with shard count when cores
// are available, since NNS assessment dominates and shards share no
// mutable hot state. On a single-core host (GOMAXPROCS=1) the shard
// variants instead measure sharding overhead, which should stay within a
// few percent of serial.
func BenchmarkParallelPipeline(b *testing.B) {
	const peers = 8
	cfg, labeled, suspects := parallelBenchWorkload(b, peers)

	b.Run("serial", func(b *testing.B) {
		engine, err := analysis.Train(cfg, labeled)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := suspects[i%len(suspects)]
			engine.ProcessBatch(s.Peer, []flow.Record{s.Record}, nil)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
	})
	for _, shards := range []int{1, 4, 8} {
		b.Run("shards-"+itoa(shards), func(b *testing.B) {
			engine, err := analysis.TrainParallel(analysis.ParallelConfig{
				Config: cfg,
				Shards: shards,
			}, labeled)
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := suspects[i%len(suspects)]
				if err := engine.SubmitBatch(s.Peer, []flow.Record{s.Record}); err != nil {
					b.Fatal(err)
				}
			}
			engine.Flush()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkEIACheck measures the Basic InFilter hot path.
func BenchmarkEIACheck(b *testing.B) {
	store := eia.NewStore(benchEIASet(b))
	src, _ := netaddr.MustParseAddr("61.40.1.7").V4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Check(eia.PeerAS(i%10+1), (src + netaddr.IPv4(i%1024)).Addr())
	}
}

// benchEIASet builds the standard testbed EIA allocation.
func benchEIASet(b *testing.B) *eia.Set {
	b.Helper()
	set := eia.NewSet(eia.Config{})
	for as := 1; as <= blocks.DefaultSources; as++ {
		alloc, err := blocks.EIAAllocation(as)
		if err != nil {
			b.Fatal(err)
		}
		for _, sb := range alloc {
			set.AddPrefix(eia.PeerAS(as), sb.Prefix())
		}
	}
	return set
}

// BenchmarkEIACheckParallel runs the lock-free copy-on-write snapshot
// store's read-only hot path at 1, 4 and 16 concurrent readers: the
// atomic pointer load keeps per-check cost flat as readers are added.
func BenchmarkEIACheckParallel(b *testing.B) {
	src, _ := netaddr.MustParseAddr("61.40.1.7").V4()
	for _, readers := range []int{1, 4, 16} {
		b.Run("cow-"+itoa(readers), func(b *testing.B) {
			store := eia.NewStore(benchEIASet(b))
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < readers; w++ {
				n := b.N / readers
				if w < b.N%readers {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						store.Check(eia.PeerAS(i%10+1), (src + netaddr.IPv4(i%1024)).Addr())
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkEIACheckBatch contrasts per-record Check with the batched
// CheckBatch on a 256-record single-peer column: one iteration classifies
// the whole batch, so ns/op is directly comparable between the
// sub-benchmarks. The delta is the amortized snapshot load and trie-walk
// setup.
func BenchmarkEIACheckBatch(b *testing.B) {
	const n = 256
	const peer = eia.PeerAS(7)
	srcs := make([]netaddr.Addr, n)
	verdicts := make([]eia.Verdict, n)
	src, _ := netaddr.MustParseAddr("61.40.1.7").V4()
	for i := range srcs {
		srcs[i] = (src + netaddr.IPv4(i%1024)).Addr()
	}
	b.Run("per-record", func(b *testing.B) {
		store := eia.NewStore(benchEIASet(b))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				verdicts[j] = store.Check(peer, srcs[j])
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		store := eia.NewStore(benchEIASet(b))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.CheckBatch(peer, srcs, verdicts)
		}
	})
}

// benchBloomWorkload builds a Store over roughly n pseudo-random /24
// prefixes spread across 16 peers, plus probe sources that are provably
// absent: every trained subnet is an even /24, every probe lands in an
// odd sibling /24, so each probe shares 23 bits with a real entry. That
// forces the exact path through a full-depth trie walk (the expensive
// miss, not an early divergence) while the Bloom fast tier answers the
// same probe from one filter block per length class.
func benchBloomWorkload(b *testing.B, n int, cfg eia.Config) (*eia.Store, []netaddr.Addr) {
	b.Helper()
	const probeCount = 4096
	set := eia.NewSet(cfg)
	srcs := make([]netaddr.Addr, 0, probeCount)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		subnet := uint32(rng>>42) << 1 // even /24 subnet under 0.0.0.0/1
		set.AddPrefix(eia.PeerAS(i%16+1), netaddr.PrefixFrom4(netaddr.IPv4(subnet)<<8, 24))
		if len(srcs) < cap(srcs) {
			srcs = append(srcs, (netaddr.IPv4(subnet|1)<<8 | netaddr.IPv4(i)&0xff).Addr())
		}
	}
	return eia.NewStore(set), srcs
}

// benchV6Subnet48 builds the 2001:SSSS:SSSS::/48 prefix for a 32-bit
// subnet id — the v6 analog of the even-/24 trick above, with the id
// occupying bits 16..48 so sibling subnets share 47 leading bits.
func benchV6Subnet48(sub uint32) netaddr.Prefix {
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	a[2], a[3], a[4], a[5] = byte(sub>>24), byte(sub>>16), byte(sub>>8), byte(sub)
	return netaddr.MustPrefix(netaddr.AddrFrom16(a), 48)
}

// benchV6Probe returns a host address inside the (absent) odd sibling of
// a trained even /48.
func benchV6Probe(sub uint32, host uint64) netaddr.Addr {
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	a[2], a[3], a[4], a[5] = byte(sub>>24), byte(sub>>16), byte(sub>>8), byte(sub)
	a[14], a[15] = byte(host>>8), byte(host)
	return netaddr.AddrFrom16(a)
}

// benchBloomWorkload6 is benchBloomWorkload over IPv6: n pseudo-random
// even /48s across 16 peers, probes in the odd sibling /48s so the exact
// path walks 47 shared bits before diverging.
func benchBloomWorkload6(b *testing.B, n int, cfg eia.Config) (*eia.Store, []netaddr.Addr) {
	b.Helper()
	const probeCount = 4096
	set := eia.NewSet(cfg)
	srcs := make([]netaddr.Addr, 0, probeCount)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		sub := uint32(rng>>40) << 1 // even /48 id
		set.AddPrefix(eia.PeerAS(i%16+1), benchV6Subnet48(sub))
		if len(srcs) < cap(srcs) {
			srcs = append(srcs, benchV6Probe(sub|1, uint64(i)))
		}
	}
	return eia.NewStore(set), srcs
}

// benchBloomWorkloadMixed splits the set between the families and
// alternates probe families record by record, the dual-stack worst case
// for the per-family filter banks.
func benchBloomWorkloadMixed(b *testing.B, n int, cfg eia.Config) (*eia.Store, []netaddr.Addr) {
	b.Helper()
	const probeCount = 4096
	set := eia.NewSet(cfg)
	srcs := make([]netaddr.Addr, 0, probeCount)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if i%2 == 0 {
			subnet := uint32(rng>>42) << 1
			set.AddPrefix(eia.PeerAS(i%16+1), netaddr.PrefixFrom4(netaddr.IPv4(subnet)<<8, 24))
			if len(srcs) < cap(srcs) {
				srcs = append(srcs, (netaddr.IPv4(subnet|1)<<8 | netaddr.IPv4(i)&0xff).Addr())
			}
		} else {
			sub := uint32(rng>>40) << 1
			set.AddPrefix(eia.PeerAS(i%16+1), benchV6Subnet48(sub))
			if len(srcs) < cap(srcs) {
				srcs = append(srcs, benchV6Probe(sub|1, uint64(i)))
			}
		}
	}
	return eia.NewStore(set), srcs
}

// BenchmarkEIACheckBloomTier measures the spoofed-flood hot case — every
// probed source absent from the EIA trie — at 10x and 1000x set scale,
// exact-only (trie) versus the Bloom fast tier (bloom), for a v4 set
// (the original names), a v6 set (-v6-) and a half-and-half set probed
// with alternating families (-mixed-). The trie walk chases dependent
// pointers through a structure whose footprint grows with the set; the
// blocked Bloom probe touches one cache line per filter per length
// class regardless of scale or family width, so bloom-1000x should stay
// within ~1.2x of bloom-10x while the trie baseline degrades.
func BenchmarkEIACheckBloomTier(b *testing.B) {
	const base = 1000 // prefixes at 1x
	workloads := []struct {
		name  string
		build func(*testing.B, int, eia.Config) (*eia.Store, []netaddr.Addr)
	}{
		{"", benchBloomWorkload},
		{"v6-", benchBloomWorkload6},
		{"mixed-", benchBloomWorkloadMixed},
	}
	for _, scale := range []int{10, 1000} {
		for _, w := range workloads {
			for _, tier := range []struct {
				name string
				cfg  eia.Config
			}{
				{"trie", eia.Config{}},
				{"bloom", eia.Config{BloomBitsPerEntry: 10}},
			} {
				b.Run(tier.name+"-"+w.name+itoa(scale)+"x", func(b *testing.B) {
					store, srcs := w.build(b, base*scale, tier.cfg)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						store.Check(eia.PeerAS(i%16+1), srcs[i%len(srcs)])
					}
				})
			}
		}
	}
}

// BenchmarkScanSuspect measures the per-suspect cost of scan analysis as
// the distinct probe cardinality grows 100x: a one-source network scan
// fanning out over `scale` distinct target hosts on one port. The
// analyzer's state is bounded (a register's window sets by 2 × BufferSize
// keys, register tables by MaxRegisters), so a scan 100x wider must cost
// about the same per suspect (sketch-1000x within ~1.2x of sketch-10x).
func BenchmarkScanSuspect(b *testing.B) {
	const base = 100
	for _, scale := range []int{10, 1000} {
		b.Run("sketch-"+itoa(scale)+"x", func(b *testing.B) {
			distinct := base * scale
			probes := make([]flow.Record, distinct)
			for i := range probes {
				probes[i] = flow.Record{
					Key: flow.Key{
						Src:     netaddr.IPv4(0xc9090909).Addr(),
						Dst:     netaddr.IPv4(uint32(0x0a000000 + i)).Addr(),
						Proto:   flow.ProtoUDP,
						SrcPort: uint16(1024 + i%60000),
						DstPort: 1434,
					},
					Packets: 1, Bytes: 404,
				}
			}
			a := scan.New(scan.Config{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Add(probes[i%distinct])
			}
		})
	}
}

// BenchmarkNetFlowCodec round-trips a full 30-record v5 datagram through
// the version-agnostic encode/decode path.
func BenchmarkNetFlowCodec(b *testing.B) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]flow.Record, 0, netflow.MaxRecords)
	for i := 0; i < netflow.MaxRecords; i++ {
		recs = append(recs, flow.Record{
			Key: flow.Key{
				Src: netaddr.IPv4(uint32(i)).Addr(), Dst: netaddr.IPv4(0xc0000201).Addr(),
				Proto: flow.ProtoTCP, DstPort: 80,
			},
			Packets: 10, Bytes: 4000,
			Start: boot.Add(time.Second), End: boot.Add(2 * time.Second),
		})
	}
	db := netflow.NewDecodeBuffer(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dgs := netflow.NewV5Encoder(boot, 1).Encode(recs, boot.Add(time.Minute))
		if len(dgs) != 1 {
			b.Fatalf("encoded %d datagrams", len(dgs))
		}
		if _, err := netflow.Decode(dgs[0].Raw, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnaryEncode measures flow-statistics encoding into the five
// levels of a unary code in {0,1}^720.
func BenchmarkUnaryEncode(b *testing.B) {
	enc := nns.MustDefaultEncoder()
	s := flow.Stats{Bytes: 20000, Packets: 30, DurationMS: 1500, BitRate: 100000, PacketRate: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(s)
	}
}

// BenchmarkDagflowReplay measures trace-to-NetFlow replay throughput.
func BenchmarkDagflowReplay(b *testing.B) {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 1, Start: start, Flows: 500,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := dagflowInstance(start)
		if _, err := inst.Replay(pkts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pkts)), "packets/replay")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
