package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// aaRow is one end-to-end metric on one workload, measured by two sets of
// runs of the same binary.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	// A and B: first quartile, median, third quartile.
	A [3]float64 `json:"a"`
	B [3]float64 `json:"b"`
	// Spread is the wider of the two sets' interquartile distances as a
	// share of the median; Diff is how much worse B's median is than A's,
	// as a share of A's (negative: better).
	Spread float64 `json:"spread"`
	Diff   float64 `json:"diff"`
	Agrees bool    `json:"agrees"`
}

// runAA is the benchmark's check on itself: the full set of workloads n
// times as "A" and n times as "B", alternating, the k-th run of either
// set on seed+k. The same code must agree with itself within the bounds
// it holds others to; a row that does not is unresolved, not unchanged.
// The A medians become benchmark/baseline.json.
func runAA(ctx context.Context, n int, specs []workloadSpec, bin, outDir, root string, seed int64, seconds float64, st stamp) error {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for k := 0; k < n; k++ {
		for side := 0; side < 2; side++ {
			// Alternate which side goes first, so drift over the
			// session does not favour one.
			side := (side + k) % 2
			for i := range specs {
				res, err := runWorkload(ctx, runConfig{
					daemonBin: bin, outDir: outDir, spec: &specs[i], seed: seed + int64(k), seconds: seconds, e2e: true,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", specs[i].Name, err)
				}
				if !res.Correct {
					report(res)
					return fmt.Errorf("%s: output checks failed on seed %d", res.Workload, res.Seed)
				}
				for name, m := range res.Metrics {
					values[side][key{res.Workload, name}] = append(values[side][key{res.Workload, name}], m.Value)
				}
				st.Pacing = res.Pacing
				if k == 0 {
					st.CorpusHashes[res.Workload] = res.CorpusHash
				}
				fmt.Fprintf(os.Stderr, "aa %d/%d %c %s done\n", k+1, n, 'A'+side, res.Workload)
			}
		}
	}
	var rows []aaRow
	agree := true
	for i := range specs {
		for _, m := range endToEnd {
			k := key{specs[i].Name, m.Name}
			a, b := values[0][k], values[1][k]
			row := aaRow{Workload: k.workload, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			if len(a) > 1 {
				row.A[0], row.A[1], row.A[2] = quartiles(a)
				row.B[0], row.B[1], row.B[2] = quartiles(b)
				row.Spread = max(spread(a), spread(b))
			} else {
				row.A[1], row.B[1] = a[0], b[0]
			}
			row.Diff = (row.B[1] - row.A[1]) / row.A[1]
			if m.Better == "higher" {
				row.Diff = -row.Diff
			}
			row.Agrees = row.Diff <= m.Bound && row.Spread <= m.Bound
			agree = agree && row.Agrees
			rows = append(rows, row)
		}
	}
	fmt.Printf("%-18s %-22s %12s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "A q1", "A median", "A q3", "B median", "spread", "diff", "bound")
	for _, r := range rows {
		verdict := ""
		if !r.Agrees {
			verdict = "  UNRESOLVED"
		}
		fmt.Printf("%-18s %-22s %12.4f %12.4f %12.4f %12.4f %7.1f%% %+7.1f%% %5.0f%%%s\n",
			r.Workload, r.Metric, r.A[0], r.A[1], r.A[2], r.B[1], r.Spread*100, r.Diff*100, r.Bound*100, verdict)
	}
	if err := writeJSON(filepath.Join(root, "benchmark", "baseline.json"), struct {
		Stamp   stamp   `json:"stamp"`
		Runs    int     `json:"runs_per_side"`
		Seconds float64 `json:"seconds"`
		Rows    []aaRow `json:"rows"`
	}{st, n, seconds, rows}); err != nil {
		return err
	}
	if !agree {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the benchmark's own bounds")
	}
	return nil
}
