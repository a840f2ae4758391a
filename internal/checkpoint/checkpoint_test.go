package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/telemetry"
	"infilter/internal/testutil"
	"infilter/internal/trace"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestNewManagerValidation(t *testing.T) {
	dir := t.TempDir()
	ok := Artifact{Name: "a.ckpt", Write: writeString("x")}
	cases := []struct {
		name string
		cfg  Config
		arts []Artifact
	}{
		{"empty dir", Config{}, []Artifact{ok}},
		{"no artifacts", Config{Dir: dir}, nil},
		{"empty name", Config{Dir: dir}, []Artifact{{Name: "", Write: ok.Write}}},
		{"path name", Config{Dir: dir}, []Artifact{{Name: "sub/a.ckpt", Write: ok.Write}}},
		{"nil writer", Config{Dir: dir}, []Artifact{{Name: "a.ckpt"}}},
		{"duplicate", Config{Dir: dir}, []Artifact{ok, ok}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.cfg, nil, tc.arts...); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	m, err := NewManager(Config{Dir: filepath.Join(dir, "fresh")}, nil, ok)
	if err != nil {
		t.Fatal(err)
	}
	// The state dir is created eagerly so startup fails fast on bad paths.
	if _, err := os.Stat(filepath.Join(dir, "fresh")); err != nil {
		t.Errorf("state dir not created: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtomicAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	if err := WriteAtomic(path, writeString("generation-1")); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	ok, err := Load(dir, "state.ckpt", func(r io.Reader) error {
		_, err := got.ReadFrom(r)
		return err
	})
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if got.String() != "generation-1" {
		t.Fatalf("loaded %q", got.String())
	}

	// A failed write leaves the previous generation intact and no temp file.
	boom := fmt.Errorf("serializer exploded")
	if err := WriteAtomic(path, func(io.Writer) error { return boom }); err == nil {
		t.Fatal("want write error")
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "generation-1" {
		t.Fatalf("previous checkpoint damaged: %q, %v", data, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}

	// Missing checkpoint: first boot, not an error.
	ok, err = Load(dir, "absent.ckpt", func(io.Reader) error { return nil })
	if ok || err != nil {
		t.Fatalf("absent: ok=%v err=%v", ok, err)
	}

	// A loader error surfaces so a corrupt state dir fails the restart
	// loudly instead of silently starting cold.
	if _, err := Load(dir, "state.ckpt", func(io.Reader) error { return boom }); err == nil {
		t.Fatal("want loader error")
	}
}

// TestCrashMidWriteNeverLoaded simulates the crash the atomic rename
// protects against: a half-written temporary file sitting in the state
// dir. Load must not see it, and the next checkpoint pass must replace
// it cleanly.
func TestCrashMidWriteNeverLoaded(t *testing.T) {
	dir := t.TempDir()
	if err := WriteAtomic(filepath.Join(dir, "eia.ckpt"), writeString("good")); err != nil {
		t.Fatal(err)
	}
	// The "crash": a partial temp file from an interrupted write.
	partial := filepath.Join(dir, "eia.ckpt.tmp")
	if err := os.WriteFile(partial, []byte("gar"), 0o644); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	ok, err := Load(dir, "eia.ckpt", func(r io.Reader) error {
		_, err := got.ReadFrom(r)
		return err
	})
	if err != nil || !ok || got.String() != "good" {
		t.Fatalf("partial temp file leaked into Load: ok=%v err=%v data=%q", ok, err, got.String())
	}

	// The next pass overwrites the stale temp file and publishes normally.
	if err := WriteAtomic(filepath.Join(dir, "eia.ckpt"), writeString("good-2")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived the next pass: %v", err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "eia.ckpt"))
	if string(data) != "good-2" {
		t.Fatalf("second generation not published: %q", data)
	}
}

func TestManagerLoopWritesAndCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	metrics := NewMetrics(reg)
	gen := 0
	m, err := NewManager(Config{Dir: dir, Interval: 5 * time.Millisecond}, metrics,
		Artifact{Name: "state.ckpt", Write: func(w io.Writer) error {
			gen++ // single writer goroutine until Close; no race
			_, err := fmt.Fprintf(w, "gen-%d", gen)
			return err
		}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for metrics.Writes.Value() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := metrics.Writes.Value(); n < 3 {
		t.Fatalf("background loop wrote %d checkpoints, want >=3", n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	closeGen := gen
	data, err := os.ReadFile(filepath.Join(dir, "state.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	// Close writes the final flush; the newest generation must be on disk.
	if want := fmt.Sprintf("gen-%d", closeGen); string(data) != want {
		t.Fatalf("final flush: have %q want %q", data, want)
	}
	// Idempotent: a second Close neither writes nor errors.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if gen != closeGen {
		t.Fatalf("second Close wrote again: gen %d -> %d", closeGen, gen)
	}
	if metrics.Errors.Value() != 0 {
		t.Fatalf("unexpected checkpoint errors: %d", metrics.Errors.Value())
	}
}

func TestManagerCountsErrorsAndKeepsGoing(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	metrics := NewMetrics(reg)
	m, err := NewManager(Config{Dir: dir, Interval: time.Hour}, metrics,
		Artifact{Name: "bad.ckpt", Write: func(io.Writer) error { return fmt.Errorf("nope") }},
		Artifact{Name: "good.ckpt", Write: writeString("fine")})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteNow(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("WriteNow error = %v", err)
	}
	// The failing artifact must not block the healthy one.
	if _, err := os.Stat(filepath.Join(dir, "good.ckpt")); err != nil {
		t.Errorf("healthy artifact skipped: %v", err)
	}
	if metrics.Errors.Value() != 1 {
		t.Errorf("errors counter = %d, want 1", metrics.Errors.Value())
	}
	if metrics.Writes.Value() != 0 {
		t.Errorf("writes counter = %d, want 0 (pass had a failure)", metrics.Writes.Value())
	}
	m.Close()
}

func TestManagerNoGoroutineLeak(t *testing.T) {
	testutil.ExpectNoGoroutineGrowth(t, func() {
		for i := 0; i < 5; i++ {
			m, err := NewManager(Config{Dir: t.TempDir(), Interval: time.Millisecond}, nil,
				Artifact{Name: "a.ckpt", Write: writeString("x")})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			time.Sleep(3 * time.Millisecond)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Close without Start must not hang waiting for a loop that never ran.
		m, err := NewManager(Config{Dir: t.TempDir()}, nil,
			Artifact{Name: "a.ckpt", Write: writeString("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// trainFlows builds a small normal-traffic flow set the way the nns tests
// do: synthetic packets through the netflow cache.
func trainFlows(t *testing.T, flows int, seed int64) []flow.Record {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        seed,
		Start:       time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC),
		Flows:       flows,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 1)
	}
	cache.FlushAll()
	return cache.Drain()
}

// TestRestartPreservesEIAAndNNS is the warm-restart property end to end at
// the package level: runtime-learned EIA promotions and the trained NNS
// clusters written by a manager's final flush are reproduced by a fresh
// process loading the same state dir.
func TestRestartPreservesEIAAndNNS(t *testing.T) {
	dir := t.TempDir()

	// "First process": a store that learns a promotion at runtime, plus a
	// trained detector.
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	store := eia.NewStore(set)
	src := netaddr.MustParseAddr("70.9.9.9")
	promoted := false
	for i := 0; i < eia.DefaultPromoteThreshold; i++ {
		promoted = store.RecordLegal(2, src) || promoted
	}
	if !promoted {
		t.Fatal("source never promoted")
	}
	detector, err := nns.Train(nns.DetectorConfig{}, trainFlows(t, 1200, 7))
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Config{Dir: dir, Interval: time.Hour}, nil,
		Artifact{Name: "eia.ckpt", Write: func(w io.Writer) error { return store.Snapshot().WriteCheckpoint(w) }},
		Artifact{Name: "nns.ckpt", Write: detector.Save})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Close(); err != nil { // the SIGTERM flush
		t.Fatal(err)
	}

	// "Second process": load both checkpoints cold.
	restored := eia.NewSet(eia.Config{})
	ok, err := Load(dir, "eia.ckpt", func(r io.Reader) error {
		return eia.ReadCheckpointInto(restored, r)
	})
	if err != nil || !ok {
		t.Fatalf("load eia: ok=%v err=%v", ok, err)
	}
	store2 := eia.NewStore(restored)
	if got := store2.Check(1, netaddr.MustParseAddr("61.1.2.3")); got != eia.Match {
		t.Errorf("trained prefix lost across restart: %v", got)
	}
	if got := store2.Check(2, src); got != eia.Match {
		t.Errorf("runtime promotion lost across restart: %v", got)
	}
	if got, had := store2.Snapshot().Len(), store.Snapshot().Len(); got != had {
		t.Errorf("restored %d prefixes, had %d", got, had)
	}

	var detector2 *nns.Detector
	ok, err = Load(dir, "nns.ckpt", func(r io.Reader) error {
		d, err := nns.LoadDetector(r)
		detector2 = d
		return err
	})
	if err != nil || !ok {
		t.Fatalf("load nns: ok=%v err=%v", ok, err)
	}
	if len(detector2.Clusters()) != len(detector.Clusters()) {
		t.Fatalf("clusters %v vs %v", detector2.Clusters(), detector.Clusters())
	}
	for i, r := range trainFlows(t, 200, 8) {
		a, b := detector.Assess(r), detector2.Assess(r)
		if a.Anomalous != b.Anomalous || a.Distance != b.Distance {
			t.Fatalf("flow %d: pre-restart %+v vs post-restart %+v", i, a, b)
		}
	}
}
