package nns

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"infilter/internal/flow"
)

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	d, err := Train(DetectorConfig{}, trainFlows(t, 1200, 21))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same clusters, same thresholds.
	orig, got := d.Clusters(), loaded.Clusters()
	if len(orig) != len(got) {
		t.Fatalf("clusters %v vs %v", orig, got)
	}
	for _, c := range orig {
		to, _ := d.Threshold(c)
		tl, ok := loaded.Threshold(c)
		if !ok || to != tl {
			t.Errorf("cluster %v threshold %d vs %d (%v)", c, to, tl, ok)
		}
	}

	// Identical assessments on fresh traffic (Build is deterministic in
	// the saved seeds, so the structures must agree flow by flow).
	probe := trainFlows(t, 300, 22)
	for i, r := range probe {
		a, b := d.Assess(r), loaded.Assess(r)
		if a.Anomalous != b.Anomalous || a.Distance != b.Distance || a.Cluster != b.Cluster {
			t.Fatalf("flow %d: original %+v vs loaded %+v", i, a, b)
		}
	}
}

func TestLoadDetectorErrors(t *testing.T) {
	if _, err := LoadDetector(strings.NewReader("not gob data")); err == nil {
		t.Error("garbage: want error")
	}
	if _, err := LoadDetector(bytes.NewReader(nil)); err == nil {
		t.Error("empty: want error")
	}

	// A vector whose run of ones has a gap is not a unary code.
	d, _ := assessProbe(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dto detectorDTO
	if err := gob.NewDecoder(&buf).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	c := d.Clusters()[0]
	words := dto.Clusters[c].Vecs[3]
	v, _ := levelsOf(words, DefaultD)
	dc := DefaultD / flow.NumStats
	s := slices.IndexFunc(v[:], func(l uint8) bool { return int(l)+1 < dc })
	bit := s*dc + int(v[s]) + 1
	words[bit/64] |= 1 << (bit % 64)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDetector(&buf)
	if want := fmt.Sprintf("%v cluster vec 3: not a unary code", c); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("gap after stat %d's run: error %v, want one containing %q", s, err, want)
	}
}

// TestUnaryWordsRoundTrip checks the model file's vector form: random
// levels written as words match the bit-by-bit unary code and read back
// to the same levels.
func TestUnaryWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, d := range []int{130, DefaultD} {
		for trial := 0; trial < 500; trial++ {
			v := randomLevels(rng, d/flow.NumStats)
			words := unaryWords(v, d)
			if !slices.Equal(words, unary(v, d)) {
				t.Fatalf("d=%d %v: words %x, unary code %x", d, v, words, unary(v, d))
			}
			if back, ok := levelsOf(words, d); !ok || back != v {
				t.Fatalf("d=%d %v: read back %v, %v", d, v, back, ok)
			}
		}
	}
}
