package main

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The tests that need the real daemon share one build of it, and the
// detector model one start of it trains: the reference pass judges with
// the model the daemon saved, as a run does.
var harness struct {
	once  sync.Once
	dir   string
	bin   string
	model string
	err   error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if harness.dir != "" {
		os.RemoveAll(harness.dir)
	}
	os.Exit(code)
}

func daemonAndModel(t *testing.T) (bin, model string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and starts infilterd")
	}
	harness.once.Do(func() {
		h := &harness
		if h.dir, h.err = os.MkdirTemp("", "infilter-bench-test"); h.err != nil {
			return
		}
		h.bin = filepath.Join(h.dir, "infilterd")
		if h.err = buildDaemon(context.Background(), "..", h.bin); h.err != nil {
			return
		}
		run := filepath.Join(h.dir, "train")
		if h.err = prepareRunDir(run, []byte("1 61.0.0.0/11\n2 70.0.0.0/11\n")); h.err != nil {
			return
		}
		var cons *consumer
		if cons, h.err = newConsumer(); h.err != nil {
			return
		}
		defer cons.close()
		_, statErr := os.Stat(procNetUDP)
		var d *daemon
		if d, h.err = startDaemon(context.Background(), h.bin, run, cons.addr(), statErr == nil); h.err != nil {
			return
		}
		h.err = d.stop()
		h.model = filepath.Join(run, "model.bin")
	})
	if harness.err != nil {
		t.Fatal(harness.err)
	}
	return harness.bin, harness.model
}
