package stats

import (
	"strings"
	"testing"
)

func TestMeanMaxStddev(t *testing.T) {
	xs := []float64{2, 4, 6, 8}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Max(xs); got != 8 {
		t.Errorf("Max = %v", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input statistics should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "Figure 15: Attack detection rate",
		Columns: []string{"attack volume", "single set", "10 sets"},
	}
	tab.AddRow("2%", "83.1%", "70.4%")
	tab.AddRow("4%", "82.8%", "69.9%")
	out := tab.String()
	for _, want := range []string{"Figure 15", "attack volume", "83.1%", "70.4%", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(3.14159); got != "3.14%" {
		t.Errorf("Pct = %q", got)
	}
}
