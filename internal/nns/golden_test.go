package nns

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"infilter/internal/flow"
	"infilter/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// The golden pair pins the search's observable behaviour across rewrites:
// a version-1 model file and the assessments that model produced when it
// was written. Regenerate both with `go test ./internal/nns -run Golden
// -update` only when a change is meant to move verdicts.
var (
	goldenModel  = filepath.Join("testdata", "detector_v1.gob")
	goldenAssess = filepath.Join("testdata", "detector_v1_assess.json")
)

type goldenFile struct {
	Thresholds  map[flow.Subcluster]int
	Assessments []Assessment
}

func goldenTraining(t *testing.T) []flow.Record { return trainFlows(t, 600, 41) }

// goldenProbe mixes benign flows with SYN-flood and exploit flows so the
// golden covers near and far queries alike.
func goldenProbe(t *testing.T) []flow.Record {
	probe := trainFlows(t, 200, 42)
	for _, at := range []trace.AttackType{trace.AttackSYNFlood, trace.AttackHTTPExploit, trace.AttackDNSExploit} {
		recs := attackFlows(t, at, 43)
		if len(recs) > 100 {
			recs = recs[:100]
		}
		probe = append(probe, recs...)
	}
	return probe
}

func assessAll(d *Detector, recs []flow.Record) []Assessment {
	out := make([]Assessment, len(recs))
	for i, r := range recs {
		out[i] = d.Assess(r)
	}
	return out
}

func thresholds(d *Detector) map[flow.Subcluster]int {
	out := make(map[flow.Subcluster]int)
	for _, c := range d.Clusters() {
		out[c], _ = d.Threshold(c)
	}
	return out
}

func TestGoldenModelFile(t *testing.T) {
	training, probe := goldenTraining(t), goldenProbe(t)
	if *update {
		d, err := Train(DetectorConfig{}, training)
		if err != nil {
			t.Fatal(err)
		}
		var model bytes.Buffer
		if err := d.Save(&model); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(goldenFile{Thresholds: thresholds(d), Assessments: assessAll(d, probe)}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModel, model.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAssess, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(goldenAssess)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(goldenModel)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := LoadDetector(f)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := Train(DetectorConfig{}, training)
	if err != nil {
		t.Fatal(err)
	}

	// Calibration runs through Search, so retraining must reproduce the
	// thresholds the model file was saved with.
	for name, d := range map[string]*Detector{"loaded": loaded, "retrained": trained} {
		got := thresholds(d)
		if len(got) != len(want.Thresholds) {
			t.Fatalf("%s: clusters %v, want %v", name, got, want.Thresholds)
		}
		for c, th := range want.Thresholds {
			if got[c] != th {
				t.Errorf("%s: cluster %v threshold %d, want %d", name, c, got[c], th)
			}
		}
		assessed := assessAll(d, probe)
		if len(assessed) != len(want.Assessments) {
			t.Fatalf("%s: %d assessments, want %d", name, len(assessed), len(want.Assessments))
		}
		for i, a := range assessed {
			if a != want.Assessments[i] {
				t.Fatalf("%s: probe %d assessed %+v, want %+v", name, i, a, want.Assessments[i])
			}
		}
	}
}
