package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeSpoofFlood runs spoof-flood at 1/50 size against the real
// daemon, traced, and expects every output check to pass; then once more,
// smaller, under the scrape pacing that systems without /proc/net/udp get.
func TestSmokeSpoofFlood(t *testing.T) {
	bin, _ := daemonAndModel(t)
	for _, c := range []struct {
		name    string
		seconds float64
		scrape  bool
	}{{"kernel", 0.2, false}, {"scrape", 0.1, true}} {
		t.Run(c.name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runWorkload(context.Background(), runConfig{
				daemonBin: bin, outDir: out, spec: findWorkload("spoof-flood"), seed: 5, seconds: c.seconds,
				probe: !c.scrape, e2e: c.scrape, forceScrape: c.scrape,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Error(p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if c.scrape {
				if res.Pacing != "scrape" {
					t.Errorf("pacing %q, want scrape", res.Pacing)
				}
				for _, m := range endToEnd {
					if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, v.Value)
					}
				}
				return
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s is missing", m.Name)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace-spoof-flood.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ Spans []span }
			if err := json.Unmarshal(raw, &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.Spans) < 10 || tr.Spans[0].Parent != -1 {
				t.Fatalf("%d spans, root parent %d", len(tr.Spans), tr.Spans[0].Parent)
			}
			for _, s := range tr.Spans[1:] {
				if s.Name == "" || s.End < s.Start || s.Parent < 0 || s.Parent >= s.ID {
					t.Fatalf("bad span %+v", s)
				}
			}
		})
	}
}
