package main

import (
	"testing"

	"infilter/internal/idmef"
	"infilter/internal/netflow"
)

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := buildCorpus(w, 7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildCorpus(w, 7, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildCorpus(w, 8, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 twice gave %s and %s", w.Name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", w.Name)
		}
		if got, want := a.records(phaseSaturate), w.saturateRecords(0.2); got < want || got > want+livePeers*netflow.MaxRecords {
			t.Errorf("%s: %d saturate records, want %d rounded up to whole datagrams", w.Name, got, want)
		}
	}
}

// TestWorkloadProperties holds every workload, at a tenth of its size, to
// what its definition promises: the suspect share, where the suspects end,
// promotions, no alert in a benign saturate phase, flagged flows with
// unique keys, every injected event detected. It also holds the staged
// reference pass to analysis.ParallelEngine configured as the daemon is.
func TestWorkloadProperties(t *testing.T) {
	_, model := daemonAndModel(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			co, err := buildCorpus(w, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runReference(co, model, false)
			if err != nil {
				t.Fatal(err)
			}
			chk := &checker{}
			checkProperties(chk, w, ref, int64(co.records(phaseSaturate)))
			for _, p := range chk.problems {
				t.Error(p)
			}
			if ref.duplicates != 0 {
				t.Errorf("%d flagged flows share a key with another", ref.duplicates)
			}
			if n := ref.counts[phaseWarmup].alerts(); n != 0 {
				t.Errorf("%d alerts in the warm-up, want none", n)
			}
			if n := ref.counts[phasePaced].alerts(); n < 100 {
				t.Errorf("%d alerts in the paced phase, too few for an alert latency", n)
			}
			events, detected := map[int32]bool{}, map[int32]bool{}
			for k, ev := range co.events {
				events[ev] = true
				if _, ok := ref.expected[k]; ok {
					detected[ev] = true
				}
			}
			if len(detected) != len(events) {
				t.Errorf("%d of %d injected events are detected", len(detected), len(events))
			}

			engine, stats, err := engineAlerts(co, model)
			if err != nil {
				t.Fatal(err)
			}
			total := phaseCounts{byStage: map[idmef.Stage]int{}}
			for p := range ref.counts {
				total.add(&ref.counts[p])
			}
			for _, st := range []idmef.Stage{idmef.StageScan, idmef.StageNNS, idmef.StageTTL} {
				if engine[st] != total.byStage[st] {
					t.Errorf("%s alerts: engine %d, staged reference %d", st, engine[st], total.byStage[st])
				}
			}
			if stats.Processed != total.records || stats.Suspects != total.suspects || stats.Promotions != total.promotions {
				t.Errorf("engine processed/suspects/promotions %d/%d/%d, staged reference %d/%d/%d",
					stats.Processed, stats.Suspects, stats.Promotions, total.records, total.suspects, total.promotions)
			}
		})
	}
}
