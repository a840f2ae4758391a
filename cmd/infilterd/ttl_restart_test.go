package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netflow"
	"infilter/internal/testutil"
)

// ttlRec is testRec with an observed arrival TTL.
func ttlRec(src string, ttl uint8) flow.Record {
	r := testRec(src, 9, 4040, flow.ProtoTCP, 80)
	r.TTL = ttl
	return r
}

// sendIPFIX replays recs to a daemon port as one IPFIX stream from one
// socket (template state is keyed by exporter address).
func sendIPFIX(t *testing.T, port int, recs []flow.Record) {
	t.Helper()
	enc := netflow.NewIPFIXEncoder(7)
	now := time.Date(2005, 4, 1, 0, 1, 0, 0, time.UTC)
	conn, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, wd := range enc.Encode(recs, now) {
		if _, err := conn.Write(wd.Raw); err != nil {
			t.Fatal(err)
		}
	}
}

func waitAlerts(t *testing.T, counter *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counter.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("got %d ttl-stage alerts, want %d", counter.Load(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWarmRestartPreservesTTLProfiles is the acceptance test for the
// ttl.ckpt artifact: the first daemon learns a TTL profile for a legal
// /24 (three in-profile flows), catches one TTL-spoofed flow at the
// ttl-profile stage, and checkpoints on the shutdown drain. The
// restarted daemon is sent a SINGLE spoofed flow — below MinSamples for
// a cold profile — so the second ttl-stage alert is only possible if the
// learned profiles came back from the state dir. The whole double
// start/stop cycle runs under the goroutine-leak gate.
func TestWarmRestartPreservesTTLProfiles(t *testing.T) {
	var ttlAlerts atomic.Int64
	consumer := idmef.NewConsumer(func(a idmef.Alert) {
		if a.Assessment.Stage == idmef.StageTTL {
			ttlAlerts.Add(1)
		}
	})
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	stateDir := t.TempDir()
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{
		"-ports", "0", "-mode", "EI", "-ttl-tolerance", "2",
		"-train-flows", "400", "-train-seed", "3",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-state-dir", stateDir, "-checkpoint-interval", "1h",
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	testutil.ExpectNoGoroutineGrowth(t, func() {
		// First run: learn 61.0.7.0/24 at TTL 57, then spoof at TTL 30.
		ports, _, cancel, done := startDaemon(t, append([]string{"-eia-file", eiaPath}, base...))
		sendIPFIX(t, ports[0], []flow.Record{
			ttlRec("61.0.7.1", 57),
			ttlRec("61.0.7.2", 57),
			ttlRec("61.0.7.3", 57),
			ttlRec("61.0.7.9", 30),
		})
		waitAlerts(t, &ttlAlerts, 1)
		stopDaemon(t, cancel, done)

		ckpt, err := os.ReadFile(filepath.Join(stateDir, "ttl.ckpt"))
		if err != nil {
			t.Fatalf("shutdown flush wrote no TTL checkpoint: %v", err)
		}
		if !strings.HasPrefix(string(ckpt), "# infilter-ttl-checkpoint v1\n") {
			t.Fatalf("unexpected TTL checkpoint header:\n%s", ckpt)
		}

		// Restart without the EIA preload: one spoofed flow cannot build a
		// profile on its own, so this alert proves the warm restart.
		ports, _, cancel, done = startDaemon(t, base)
		sendIPFIX(t, ports[0], []flow.Record{ttlRec("61.0.7.10", 30)})
		waitAlerts(t, &ttlAlerts, 2)
		stopDaemon(t, cancel, done)
	})
}

// TestWarmRestartFromPreTTLStateDir pins the additive-format contract:
// a state dir written by a daemon that never ran the TTL stage (no
// ttl.ckpt, the layout every pre-TTL version produced) must still warm-
// restart a daemon that has the stage enabled — the stage cold-starts
// and learns from live traffic as if the artifact were simply new.
func TestWarmRestartFromPreTTLStateDir(t *testing.T) {
	var ttlAlerts atomic.Int64
	consumer := idmef.NewConsumer(func(a idmef.Alert) {
		if a.Assessment.Stage == idmef.StageTTL {
			ttlAlerts.Add(1)
		}
	})
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	stateDir := t.TempDir()
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{
		"-ports", "0", "-mode", "EI",
		"-train-flows", "400", "-train-seed", "3",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-state-dir", stateDir, "-checkpoint-interval", "1h",
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	// First run: TTL stage off — the state dir a pre-TTL daemon leaves.
	_, _, cancel, done := startDaemon(t, append([]string{"-eia-file", eiaPath}, base...))
	stopDaemon(t, cancel, done)
	if _, err := os.Stat(filepath.Join(stateDir, "ttl.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("ttl.ckpt unexpectedly present with the stage disabled: %v", err)
	}

	// Second run: stage enabled against the old layout. It must come up,
	// cold-start the profiles, and detect live like a fresh deployment.
	ports, _, cancel, done := startDaemon(t, append([]string{"-ttl-tolerance", "2"}, base...))
	sendIPFIX(t, ports[0], []flow.Record{
		ttlRec("61.0.8.1", 57),
		ttlRec("61.0.8.2", 57),
		ttlRec("61.0.8.3", 57),
		ttlRec("61.0.8.9", 30),
	})
	waitAlerts(t, &ttlAlerts, 1)
	stopDaemon(t, cancel, done)
}
