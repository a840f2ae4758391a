// Command benchmark is the repository's performance benchmark. It builds
// and spawns the real infilterd, feeds it generated export datagrams over
// loopback UDP, receives its IDMEF alerts, checks every output against a
// reference pass, and reports the end-to-end metrics of BENCHMARK.json; a
// traced run adds the per-layer metrics. See README.md.
//
// The driver runs, from the repository root,
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload all five
// workloads run, end to end and traced, and benchmark/out/result.json
// gets the results with the environment they were measured in.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "repository root (where go.mod and cmd/infilterd are)")
		workload = fs.String("workload", "", "run only this workload (default: all five)")
		seed     = fs.Int64("seed", defaultSeed, "corpus seed")
		seconds  = fs.Float64("seconds", defaultSeconds, "measuring time of one run; sizes both phases")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics and the traced probe only (default: both)")
		aa       = fs.Int("aa", 0, "self-check: run the full set N times as A and N times as B and compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *aa < 0 {
		return fmt.Errorf("bad flags: -seconds %v -trace %d -aa %d", *seconds, *trace, *aa)
	}
	specs := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{*w}
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "infilterd")); err != nil {
		return fmt.Errorf("no cmd/infilterd under -root %s: %w", *root, err)
	}
	outDir, err := filepath.Abs(filepath.Join(*root, "benchmark", "out"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin := filepath.Join(outDir, "infilterd")
	if err := buildDaemon(ctx, *root, bin); err != nil {
		return err
	}
	st := takeStamp(*root)
	if *aa > 0 {
		return runAA(ctx, *aa, specs, bin, outDir, *root, *seed, *seconds, st)
	}

	var results []*runResult
	failed := false
	for i := range specs {
		res, err := runWorkload(ctx, runConfig{
			daemonBin: bin, outDir: outDir, spec: &specs[i], seed: *seed, seconds: *seconds,
			e2e: *trace != 1, probe: *trace != 0,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		results = append(results, res)
		st.Pacing, st.CorpusHashes[res.Workload] = res.Pacing, res.CorpusHash
		report(res)
		failed = failed || !res.Correct
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), struct {
		Stamp   stamp        `json:"stamp"`
		Results []*runResult `json:"results"`
	}{st, results}); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("output checks failed (see above and %s)", filepath.Join(outDir, "result.json"))
	}
	return nil
}

// report prints one run: the metrics by name with their units for people,
// on standard error, and the driver's line on standard output.
func report(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s (seed %d, %gs, pacing %s): correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Pacing, res.Correct, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(err) // only floats, ints and strings
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
