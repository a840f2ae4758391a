package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/testutil"
)

// TestBatchedShutdownDrainsPartialBatch is the SIGTERM-mid-batch drain
// test: with a batch size far above the traffic and a batch-timeout that
// never fires during the test, the decoded records sit in a reader's
// partially filled batch when shutdown starts. The drain must deliver
// that partial batch through the pipeline — every spoofed record still
// produces its alert before run returns.
func TestBatchedShutdownDrainsPartialBatch(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-batch-size", "4096", "-batch-timeout", "30m",
		"-stats", "1h", "-queue-depth", "64",
	}

	const perDatagram = 10
	const total = int64(2 * perDatagram)

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		ports, admin, cancel, done := startDaemon(t, args)
		defer cancel()
		base := "http://" + admin

		for i := 0; i < 2; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[0], v5Raw(t, recs))
		}

		// Wait until the reader has decoded everything; nothing may have
		// reached the pipeline yet (the batch is far from full and the
		// timeout is half an hour away).
		deadline := time.Now().Add(10 * time.Second)
		var m map[string]float64
		for {
			m = scrapeAdmin(t, tr, base+"/metrics")
			if sumMetric(m, "infilter_collector_records_total") >= float64(total) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("decoded %v records, want %d",
					sumMetric(m, "infilter_collector_records_total"), total)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got := sumMetric(m, "infilter_ingest_batch_records_count"); got != 0 {
			t.Errorf("batches delivered before shutdown = %v, want 0 (batch should still be filling)", got)
		}
		if got := alerts.Load(); got != 0 {
			t.Errorf("alerts before shutdown = %d, want 0", got)
		}

		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
		// The drain delivered the partial batch and the sender flushed
		// before run returned; the TCP consumer may lag a beat.
		deadline = time.Now().Add(10 * time.Second)
		for alerts.Load() < total {
			if time.Now().After(deadline) {
				t.Fatalf("drain produced %d alerts, want %d (partial batch dropped on shutdown)",
					alerts.Load(), total)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// TestAdminMetricsBatchedIngest scrapes the infilter_ingest_* families
// of the ingest path: batch-size histogram, flush-reason counters and
// the records/sec gauge, against exactly known traffic. With batch-size
// 8, every 10-record datagram overfills one batch, so batches delivered
// and flush{reason=full} both equal the datagram count. Batch-size 1 is
// per-datagram delivery through the same path: one full flush per
// datagram, never waiting on a batch-timeout half an hour away.
func TestAdminMetricsBatchedIngest(t *testing.T) {
	for name, batching := range map[string][]string{
		"readers=2/batch=8": {"-readers", "2", "-batch-size", "8", "-batch-timeout", "5ms"},
		"batch=1":           {"-batch-size", "1", "-batch-timeout", "30m"},
	} {
		t.Run(name, func(t *testing.T) { testAdminMetricsIngest(t, batching) })
	}
}

func testAdminMetricsIngest(t *testing.T, batching []string) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-stats", "1h", "-queue-depth", "64",
	}, batching...)

	const datagrams, perDatagram = 3, 10
	const total = int64(datagrams * perDatagram)

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		ports, admin, cancel, done := startDaemon(t, args)
		defer cancel()
		base := "http://" + admin

		for i := 0; i < datagrams; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[0], v5Raw(t, recs))
		}
		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < total {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), total)
			}
			time.Sleep(2 * time.Millisecond)
		}

		m := scrapeAdmin(t, tr, base+"/metrics")
		checks := []struct {
			name string
			want float64
		}{
			{"infilter_collector_records_total", float64(total)},
			{"infilter_pipeline_flows_total", float64(total)},
			{"infilter_ingest_batch_records_count", datagrams},
			{"infilter_ingest_batch_records_sum", float64(total)},
			{`infilter_ingest_batch_flushes_total{reason="full"}`, datagrams},
			{`infilter_ingest_batch_flushes_total{reason="timeout"}`, 0},
			{"infilter_eia_misses_total", float64(total)},
		}
		for _, c := range checks {
			if got := sumMetric(m, c.name); got != c.want {
				t.Errorf("%s = %v, want %v", c.name, got, c.want)
			}
		}
		if _, ok := m["infilter_ingest_records_per_second"]; !ok {
			t.Error("missing infilter_ingest_records_per_second gauge")
		}

		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
	})
}
