package experiment

import (
	"strings"
	"testing"
)

func TestCompareBaselines(t *testing.T) {
	results := baselineResults(t)
	if len(results) != 4 {
		t.Fatalf("%d detectors", len(results))
	}
	byName := map[string]BaselineResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.AttacksLaunched == 0 || r.BenignFlows == 0 {
			t.Fatalf("%s saw no traffic: %+v", r.Name, r)
		}
	}
	bi := byName["Basic InFilter"]
	ei := byName["Enhanced InFilter"]
	urpf := byName["uRPF (strict)"]
	hif := byName["History-based IP filtering"]

	// BI and strict uRPF both catch all spoofed attacks in this symmetric
	// testbed and both suffer route-change false positives.
	if bi.DetectionRate() < 99 || urpf.DetectionRate() < 99 {
		t.Errorf("BI/uRPF detection %.1f/%.1f, want ~100", bi.DetectionRate(), urpf.DetectionRate())
	}
	if bi.FalsePositiveRate() < 0.5 || urpf.FalsePositiveRate() < 0.5 {
		t.Errorf("BI/uRPF FP %.2f/%.2f, want route-change false positives", bi.FalsePositiveRate(), urpf.FalsePositiveRate())
	}
	// EI keeps most of the detection at a fraction of the false positives.
	if ei.DetectionRate() < 60 {
		t.Errorf("EI detection %.1f", ei.DetectionRate())
	}
	if ei.FalsePositiveRate() >= bi.FalsePositiveRate() {
		t.Errorf("EI FP %.2f not below BI %.2f", ei.FalsePositiveRate(), bi.FalsePositiveRate())
	}
	// HIF is blind to the stealthy attacks: well below the InFilter modes.
	if hif.DetectionRate() >= ei.DetectionRate() {
		t.Errorf("HIF detection %.1f should trail EI %.1f", hif.DetectionRate(), ei.DetectionRate())
	}

	tab := BaselineTable(results).String()
	if !strings.Contains(tab, "uRPF") || !strings.Contains(tab, "History") {
		t.Errorf("table missing detectors:\n%s", tab)
	}
}
