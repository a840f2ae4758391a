package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"infilter/internal/idmef"
)

// runConfig is one run of one workload.
type runConfig struct {
	daemonBin string
	outDir    string
	spec      *workloadSpec
	seed      int64
	seconds   float64
	// e2e reports the end-to-end metrics and repeats the set-up for them;
	// probe adds the per-layer metrics and the traced layer probe. The
	// driver asks for one or the other (--trace 0 or 1), a person's run
	// for both.
	e2e, probe bool
	// forceScrape selects scrape pacing although /proc/net/udp exists;
	// tests use it to cover the path other systems take.
	forceScrape bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports. The driver reads Correct, Attempted,
// Failed and Metrics from the last line of standard output; the rest goes
// into result.json for people.
type runResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Problems   []string               `json:"problems,omitempty"`
	Notes      []string               `json:"notes,omitempty"`
	Pacing     string                 `json:"pacing"`
	StealShare float64                `json:"steal_share"`
	// Windows are the verdict rates of the saturate phase's windows, in
	// order; records_per_s is their median.
	Windows    []float64      `json:"records_per_s_windows"`
	CorpusHash string         `json:"corpus_hash"`
	Samples    map[string]int `json:"samples"`
}

// checker collects what went wrong. Every problem fails the run; those
// that can be counted in records also add to the failed count.
type checker struct {
	failed   int64
	problems []string
}

func (c *checker) fail(records int64, format string, args ...any) {
	c.failed += records
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checker) equal(what string, got, want int64) {
	if got != want {
		c.fail(abs(got-want), "%s: got %d, want %d", what, got, want)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat: USER_HZ,
// which is 100 on every Linux architecture Go runs on.
const clockTick = 10 * time.Millisecond

func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	spec := cfg.spec
	co, err := buildCorpus(spec, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.outDir, "run-"+spec.Name)
	if err := prepareRunDir(dir, co.eiaText); err != nil {
		return nil, err
	}
	model := filepath.Join(dir, "model.bin")
	cons, err := newConsumer()
	if err != nil {
		return nil, err
	}
	defer cons.close()
	_, statErr := os.Stat(procNetUDP)
	kernel := statErr == nil && !cfg.forceScrape

	res := &runResult{
		Workload: spec.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.probe,
		Metrics: make(map[string]metricValue), Samples: make(map[string]int), CorpusHash: co.hash,
	}
	chk := &checker{}

	// Set-up. For the end-to-end metrics the daemon is started
	// setupRepeats times, each time without a model so every start pays
	// for training, and setup_s is the median. For the layer metrics it is
	// started once more with the model in place: the difference is what
	// training costs. The last daemon started serves the run.
	trainStarts := 1
	if cfg.e2e {
		trainStarts = setupRepeats
	}
	var d *daemon
	var setups []float64
	for k := 0; k < trainStarts; k++ {
		if k > 0 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if err := os.Remove(model); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if d, err = startDaemon(ctx, cfg.daemonBin, dir, cons.addr(), kernel); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	trainSeconds := 0.0
	if cfg.probe {
		if err := d.stop(); err != nil {
			return nil, err
		}
		if d, err = startDaemon(ctx, cfg.daemonBin, dir, cons.addr(), kernel); err != nil {
			return nil, err
		}
		trainSeconds = median(setups) - d.setup.Seconds()
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	ref, err := runReference(co, model, cfg.probe)
	if err != nil {
		return nil, err
	}
	cons.reserve((len(ref.expected) + 1024) * 1024)

	var pc pacer = scrapePacer{d}
	if kernel {
		kp, err := newKernelPacer(d.ports, readRmemMax(), spec.SaturateRate, co.maxDatagram())
		if err != nil {
			return nil, err
		}
		defer kp.close()
		pc = kp
	}
	res.Pacing = pc.mode()
	gen, err := newGenerator(co, d, pc)
	if err != nil {
		return nil, err
	}
	defer gen.close()

	cpuBefore, haveCPU := readCPUTimes()

	// Warm-up: templates and one cycle of the benign pool, untimed.
	if err := gen.paced(phaseWarmup, warmupRate, false); err != nil {
		return nil, err
	}
	warm, err := gen.drain(false, ref.alertsThrough(phaseWarmup))
	if err != nil {
		return nil, err
	}
	if warm.missing > 0 {
		chk.fail(warm.missing, "warm-up: %d records never got a verdict", warm.missing)
	}
	s0 := warm.scrape
	k0, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}

	// Saturate: closed loop, until the scrape that sees the last verdict.
	if err := gen.saturate(); err != nil {
		return nil, err
	}
	sat, err := gen.drain(true, ref.alertsThrough(phaseSaturate))
	if err != nil {
		return nil, err
	}
	s1 := sat.scrape
	k1, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}
	if sat.missing > 0 {
		chk.fail(sat.missing, "saturate: %d records never got a verdict", sat.missing)
	}

	// Paced: open loop at the frozen rate.
	if err := gen.paced(phasePaced, spec.PacedRate, true); err != nil {
		return nil, err
	}
	pac, err := gen.drain(false, ref.alertsThrough(phasePaced))
	if err != nil {
		return nil, err
	}
	if pac.missing > 0 {
		chk.fail(pac.missing, "paced: %d records never got a verdict", pac.missing)
	}
	s2 := pac.scrape
	k2, err := readProc(d.pid())
	if err != nil {
		return nil, err
	}
	if cpuAfter, ok := readCPUTimes(); ok && haveCPU && cpuAfter.total > cpuBefore.total {
		res.StealShare = float64(cpuAfter.steal-cpuBefore.steal) / float64(cpuAfter.total-cpuBefore.total)
		if res.StealShare > 0.05 {
			res.Notes = append(res.Notes, fmt.Sprintf("noisy: the hypervisor withheld %.0f%% of the CPU time during the measured phases", res.StealShare*100))
		}
	}
	var socks [livePeers]udpSock
	if kernel {
		if socks, err = d.sockets(); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	alerts, err := cons.frames()
	if err != nil {
		return nil, err
	}

	// Output checks.
	satRecs := int64(co.records(phaseSaturate))
	measured := satRecs + int64(co.records(phasePaced))
	res.Attempted = measured
	chk.equal("records the collector decoded", int64(s2.sum("infilter_collector_records_total")), gen.sent)
	chk.equal("records the pipeline gave a verdict", int64(s2.sum("infilter_pipeline_flows_total")), gen.sent)
	chk.equal("alerts sent against frames received", int64(s2.sum("infilter_alerts_sent_total")), int64(len(alerts)))
	chk.equal("sequence gaps", int64(s2.sum("infilter_netflow_sequence_gaps_total")), 0)
	chk.equal("decode errors", int64(s2.sum("infilter_collector_decode_errors_total")), 0)
	chk.equal("alert send errors", int64(s2.sum("infilter_alert_send_errors_total")), 0)
	drops := int64(socks[0].drops + socks[1].drops)
	chk.equal("datagrams the kernel dropped", drops, 0)
	if ref.duplicates > 0 {
		chk.fail(0, "corpus: %d flagged flows share a key with another", ref.duplicates)
	}

	latencies, missing := checkAlerts(chk, co, ref, alerts, gen.due)
	checkProperties(chk, spec, ref, satRecs)
	rxqFull := 0.0
	if gen.checks > 0 {
		rxqFull = float64(gen.full) / float64(gen.checks)
	}
	if kernel && rxqFull < 0.5 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator-bound: the receive queues were full on only %.0f%% of checks, so records_per_s understates the daemon", rxqFull*100))
	}

	// End-to-end metrics.
	put := func(name string, v float64) {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				if m.Name == name {
					res.Metrics[name] = metricValue{v, m.Unit}
					return
				}
			}
		}
		panic("metric " + name + " is not in spec.go")
	}
	res.Windows = gen.windowRates()
	if cfg.e2e {
		put("setup_s", median(setups))
		put("records_per_s", median(res.Windows))
		put("rss_mb", float64(k2.hwmKB)/1024)
		if len(latencies) == 0 {
			chk.fail(0, "no alert arrived in the paced phase, so there is no alert latency")
		} else {
			put("alert_latency_p50_ms", percentile(latencies, 50))
		}
	}
	res.Samples["alert_latency"] = len(latencies)
	res.Samples["setup"] = len(setups)

	// Per-layer metrics: [S] from the /metrics delta over saturate, [K]
	// from /proc, [G] and [C] from the generator and the consumer.
	if cfg.probe {
		delta := func(family string) float64 { return s1.sum(family) - s0.sum(family) }
		series := func(name string) float64 { return s1[name] - s0[name] }
		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		cpuTicks := float64(k1.cpu.user + k1.cpu.sys - k0.cpu.user - k0.cpu.sys)
		cpuUS := cpuTicks * float64(clockTick.Microseconds()) / float64(satRecs)
		flows := delta("infilter_pipeline_flows_total")
		flushes := delta("infilter_ingest_batch_flushes_total")
		checks := delta("infilter_eia_hits_total") + delta("infilter_eia_misses_total")
		put("flowtools.batch_records_mean", ratio(delta("infilter_ingest_batch_records_sum"), delta("infilter_ingest_batch_records_count")))
		put("flowtools.flush_timeout_share", ratio(series(`infilter_ingest_batch_flushes_total{reason="timeout"}`), flushes))
		put("flowtools.socket_drops", float64(drops))
		put("flowtools.rxq_full_share", rxqFull)
		put("netflow.sequence_gaps", delta("infilter_netflow_sequence_gaps_total"))
		put("netflow.decode_errors", delta("infilter_collector_decode_errors_total"))
		put("netflow.templates_learned", s1.sum("infilter_netflow_templates_learned_total"))
		put("analysis.queue_depth_max", sat.maxQueue)
		put("analysis.enqueue_blocks", delta("infilter_pipeline_enqueue_blocks_total"))
		put("analysis.suspect_share", ratio(delta("infilter_eia_misses_total"), flows))
		put("analysis.alerts_per_record", ratio(delta("infilter_alerts_sent_total"), flows))
		put("eia.bloom_fastpath_share", ratio(delta("infilter_eia_bloom_fastpath_total"), checks))
		put("eia.hit_share", ratio(delta("infilter_eia_hits_total"), checks))
		put("eia.promotions", delta("infilter_eia_promotions_total"))
		put("scan.flag_share", ratio(delta("infilter_scan_network_trips_total")+delta("infilter_scan_host_trips_total"),
			series(`infilter_pipeline_stage_latency_seconds_count{stage="scan"}`)))
		put("scan.register_overflows", delta("infilter_sketch_register_overflows_total"))
		put("scan.decays", delta("infilter_sketch_decays_total"))
		put("nns.anomaly_share", ratio(delta("infilter_nns_anomalies_total"), delta("infilter_nns_queries_total")))
		put("nns.train_s", trainSeconds)
		put("ttl.trip_share", ratio(delta("infilter_ttl_trips_total"), delta("infilter_ttl_checks_total")))
		put("ttl.sources", s1.sum("infilter_ttl_sources"))
		put("idmef.sent", delta("infilter_alerts_sent_total"))
		put("idmef.send_errors", delta("infilter_alert_send_errors_total"))
		put("idmef.alerts_missing", float64(missing))
		// The reporting rule: a p99 needs ten samples beyond it.
		p99 := 0.0
		if p, ok := highestPercentile(len(latencies)); ok && p >= 99 {
			p99 = percentile(latencies, 99)
		}
		put("idmef.alert_latency_p99_ms", p99)
		put("infilterd.cpu_us_per_record", cpuUS)
		put("infilterd.cpu_sys_share", ratio(float64(k1.cpu.sys-k0.cpu.sys), cpuTicks))
		put("infilterd.ctx_switches_per_krecord", ratio(float64(k1.ctxSwitch-k0.ctxSwitch)*1000, float64(satRecs)))
		put("gen.late_p99_ms", gen.latePercentile(99))
		put("gen.busy_share", ratio(gen.busy.Seconds(), gen.satWall.Seconds()))

		// The probe's passes are timed in this process, garbage collector
		// included: let go of what the checks above needed first.
		cons.release()
		ref.expected, co.events, alerts = nil, nil, nil
		pr, err := runProbe(co, ref, model, filepath.Join(cfg.outDir, "trace-"+spec.Name+".json"))
		if err != nil {
			return nil, err
		}
		for name, v := range pr.metrics {
			put(name, v)
		}
		for name, n := range pr.calls {
			res.Samples[name] = n
		}
		put("probe.coverage", ratio(pr.metrics["probe.layers_sum_ns_per_record"], cpuUS*1000))
		put("checks.failed_ratio", ratio(float64(chk.failed), float64(measured)))
	}

	res.Failed = chk.failed
	res.Problems = chk.problems
	res.Correct = len(chk.problems) == 0
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1 // a failed property has no record count of its own
	}
	return res, nil
}

// checkAlerts holds the alerts received to the reference: every expected
// alert arrives once, with the stage the reference names, nothing else
// arrives, and every injected event has at least one. It returns the
// sorted latencies of the paced phase's alerts, in milliseconds from when
// each alert's datagram was due, and how many expected alerts are missing.
func checkAlerts(chk *checker, co *corpus, ref *reference, alerts []receivedAlert, due [livePeers][]time.Time) (latencies []float64, missing int64) {
	seen := make(map[alertKey]bool, len(alerts))
	var got [numPhases]map[idmef.Stage]int
	for p := range got {
		got[p] = make(map[idmef.Stage]int)
	}
	var unexpected, wrongStage, repeated int64
	for _, a := range alerts {
		exp, ok := ref.expected[a.key]
		switch {
		case !ok:
			unexpected++
			continue
		case exp.stage != a.stage:
			wrongStage++
		case seen[a.key]:
			repeated++
		}
		seen[a.key] = true
		got[exp.phase][a.stage]++
		if exp.phase == phasePaced {
			latencies = append(latencies, float64(a.at.Sub(due[exp.peer][exp.pos]))/float64(time.Millisecond))
		}
	}
	sort.Float64s(latencies)
	missing = int64(len(ref.expected) - len(seen))
	if unexpected+wrongStage+repeated+missing > 0 {
		chk.fail(unexpected+wrongStage+repeated+missing,
			"alerts: %d missing, %d with the wrong stage, %d repeated, %d for flows the reference did not flag",
			missing, wrongStage, repeated, unexpected)
	}
	for p := phaseWarmup; p < numPhases; p++ {
		for _, st := range []idmef.Stage{idmef.StageScan, idmef.StageNNS, idmef.StageTTL, idmef.StageEIA, idmef.StageHeavyHitter} {
			if g, w := got[p][st], ref.counts[p].byStage[st]; g != w {
				chk.fail(0, "%s phase: %d %s alerts, the reference has %d", p, g, st, w)
			}
		}
	}
	injected, detected := make(map[int32]bool), make(map[int32]bool)
	for k, ev := range co.events {
		injected[ev] = true
		if seen[k] {
			detected[ev] = true
		}
	}
	if n := len(injected) - len(detected); n > 0 {
		chk.fail(0, "%d of %d injected events went undetected", n, len(injected))
	}
	return latencies, missing
}

// checkProperties holds a workload to what its definition promises, on
// the reference pass's saturate phase.
func checkProperties(chk *checker, spec *workloadSpec, ref *reference, satRecs int64) {
	c := &ref.counts[phaseSaturate]
	share := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	want := func(ok bool, format string, args ...any) {
		if !ok {
			chk.fail(0, "%s: "+format, append([]any{spec.Name}, args...)...)
		}
	}
	suspects := share(c.suspects, c.records)
	switch spec.Mix {
	case mixBenign:
		want(c.suspects == 0 && c.alerts() == 0, "saturate has %d suspects and %d alerts, want none", c.suspects, c.alerts())
	case mixScanStorm:
		want(suspects > 0.28 && suspects < 0.32, "suspect share %.3f, want 0.30", suspects)
		want(share(c.byStage[idmef.StageScan], c.alerts()) >= 0.95, "%d of %d alerts at scan-analysis, want at least 95%%", c.byStage[idmef.StageScan], c.alerts())
		want(share(c.nnsQueries, c.suspects) < 0.01, "%d NNS queries for %d suspects, want under 1%%", c.nnsQueries, c.suspects)
	case mixSpoofFlood:
		want(suspects > 0.28 && suspects < 0.32, "suspect share %.3f, want 0.30", suspects)
		want(share(c.nnsQueries, c.suspects) >= 0.90, "%d of %d suspects reach NNS, want at least 90%%", c.nnsQueries, c.suspects)
		want(share(c.byStage[idmef.StageTTL], c.records) > 0.025, "%d ttl-profile alerts in %d records, want about 3%%", c.byStage[idmef.StageTTL], c.records)
	case mixRouteChange:
		want(share(c.promotions, c.records) >= 0.01, "%d promotions in %d records, want at least 1 per 100", c.promotions, c.records)
		want(share(c.alerts(), c.records) < 0.05, "%d alerts in %d records, want under 5%%", c.alerts(), c.records)
	}
	if int64(c.records) != satRecs {
		chk.fail(0, "%s: the reference saw %d saturate records, the corpus has %d", spec.Name, c.records, satRecs)
	}
}

// readRmemMax reads net.core.rmem_max, the cap on the daemon's SO_RCVBUF.
func readRmemMax() int {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		return daemonRcv
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		return daemonRcv
	}
	return n
}
