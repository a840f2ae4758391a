package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/flowtools"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/testutil"
)

// testRec builds one flow record in the shape the e2e tests replay.
func testRec(src string, packets, bytes uint32, proto uint8, dstPort uint16) flow.Record {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	return flow.Record{
		Key: flow.Key{
			Src:   netaddr.MustParseAddr(src),
			Dst:   netaddr.MustParseAddr("192.0.2.1"),
			Proto: proto, DstPort: dstPort,
		},
		Packets: packets, Bytes: bytes,
		Start: boot.Add(time.Second), End: boot.Add(2 * time.Second),
	}
}

// v5Raw encodes recs into a single NetFlow v5 datagram.
func v5Raw(t *testing.T, recs []flow.Record) []byte {
	t.Helper()
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	dgs := netflow.NewV5Encoder(boot, 1).Encode(recs, boot.Add(time.Minute))
	if len(dgs) != 1 {
		t.Fatalf("encoded %d datagrams, want 1", len(dgs))
	}
	return dgs[0].Raw
}

// sendRaw writes one datagram to a local UDP port.
func sendRaw(t *testing.T, port int, raw []byte) {
	t.Helper()
	conn, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

func TestParsePorts(t *testing.T) {
	got, err := parsePorts("5001, 5002,5003")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 5001 || got[2] != 5003 {
		t.Errorf("parsePorts = %v", got)
	}
	// A repeated port would bind twice under SO_REUSEPORT and hand both
	// exporters' flows to the later peer AS.
	for _, in := range []string{"", "abc", "70000", "-1", "5001,,5002", "5001,5001", "5001, 5002 ,5001"} {
		if _, err := parsePorts(in); err == nil {
			t.Errorf("parsePorts(%q): want error", in)
		}
	}
	// Port 0 may repeat: every bind gets its own ephemeral port.
	if got, err := parsePorts("0,0"); err != nil || len(got) != 2 {
		t.Errorf("parsePorts(\"0,0\") = %v, %v; want two ephemeral ports", got, err)
	}
}

func TestLoadEIAFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eia.txt")
	content := "# comment\n\n1 61.0.0.0/11\n2 70.0.0.0/11\n1 88.0.0.0/11\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	set := eia.NewSet(eia.Config{})
	if err := loadEIAFile(set, path); err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Errorf("loaded %d prefixes", set.Len())
	}
	store := eia.NewStore(set)
	if got := store.Check(1, netaddr.MustParseAddr("61.1.1.1")); got != eia.Match {
		t.Errorf("check = %v", got)
	}
	if got := store.Check(1, netaddr.MustParseAddr("70.1.1.1")); got != eia.WrongPeer {
		t.Errorf("check = %v", got)
	}
}

func TestLoadEIAFileErrors(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	if err := loadEIAFile(set, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file: want error")
	}
	for _, content := range []string{
		"justonefield\n",
		"x 61.0.0.0/11\n",
		"1 notacidr\n",
	} {
		path := filepath.Join(t.TempDir(), "bad.txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := loadEIAFile(set, path); err == nil {
			t.Errorf("loadEIAFile(%q): want error", content)
		}
	}
}

// TestRunShutdownDrainsAndFlushes drives the daemon end to end on ephemeral
// ports and exercises the SIGTERM-equivalent path: cancel the context, then
// require that run returns cleanly, every submitted flow produced its alert,
// and the capture archive was flushed to disk (readable, complete).
func TestRunShutdownDrainsAndFlushes(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	captureDir := t.TempDir()
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n2 70.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// BI mode with preloaded EIA sets: flows from 99.0.0.0/8 are Unknown to
	// both peers, so every record becomes exactly one attack alert.
	args := []string{
		"-ports", "0,0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-capture", captureDir, "-eia-file", eiaPath,
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	const datagrams, perDatagram = 3, 10
	const total = int64(datagrams * perDatagram)
	testutil.ExpectNoGoroutineGrowth(t, func() {
		ports, _, cancel, done := startDaemon(t, args)
		defer cancel()
		if len(ports) != 2 {
			t.Fatalf("bound %d ports, want 2", len(ports))
		}

		for i := 0; i < datagrams; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[i%len(ports)], v5Raw(t, recs))
		}

		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < total {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), total)
			}
			time.Sleep(2 * time.Millisecond)
		}
		stopDaemon(t, cancel, done)
	})

	recs, err := flowtools.ReadArchive(captureDir)
	if err != nil {
		t.Fatalf("archive not readable after shutdown: %v", err)
	}
	if int64(len(recs)) != total {
		t.Errorf("archive has %d records, want %d", len(recs), total)
	}
}

// parsePromText parses a Prometheus text exposition into series → value,
// keyed by the full sample name including labels.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// sumMetric totals every series of one family across its labels.
func sumMetric(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

func scrapeAdmin(t *testing.T, tr *http.Transport, url string) map[string]float64 {
	t.Helper()
	resp, err := (&http.Client{Transport: tr}).Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return parsePromText(t, string(body))
}

// TestAdminMetricsEndToEnd replays flows over real UDP into a daemon
// with the admin endpoint enabled, then scrapes /metrics and requires
// the collector, per-shard pipeline, EIA and alert-sink counters to be
// consistent with the alerts the TCP consumer actually observed.
func TestAdminMetricsEndToEnd(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n2 70.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-ports", "0,0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-admin-addr", "127.0.0.1:0",
		"-eia-file", eiaPath,
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	const spoofDatagrams, perDatagram = 3, 10
	const spoofed = int64(spoofDatagrams * perDatagram)
	const legal = int64(perDatagram)
	const total = spoofed + legal

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()

		ports, admin, cancel, done := startDaemon(t, args)
		defer cancel()
		if admin == "" {
			t.Fatal("no admin address reported")
		}
		base := "http://" + admin

		if resp, err := (&http.Client{Transport: tr}).Get(base + "/healthz"); err != nil {
			t.Fatalf("healthz: %v", err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz = %d before shutdown", resp.StatusCode)
			}
		}

		// One datagram of legal flows for peer 1 (EIA hits, no alerts).
		var legalRecs []flow.Record
		for j := 0; j < perDatagram; j++ {
			legalRecs = append(legalRecs, testRec(fmt.Sprintf("61.0.7.%d", j+1), 9, 4040, flow.ProtoTCP, 80))
		}
		sendRaw(t, ports[0], v5Raw(t, legalRecs))
		// Spoofed datagrams (99/8 is in no EIA set: one alert per record).
		for i := 0; i < spoofDatagrams; i++ {
			var recs []flow.Record
			for j := 0; j < perDatagram; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[i%len(ports)], v5Raw(t, recs))
		}
		// One malformed datagram: counted, dropped, no records.
		sendRaw(t, ports[0], []byte("not netflow"))

		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < spoofed {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), spoofed)
			}
			time.Sleep(2 * time.Millisecond)
		}

		// The legal flows race the alert wait; poll the scrape until every
		// record has been analyzed.
		var m map[string]float64
		for {
			m = scrapeAdmin(t, tr, base+"/metrics")
			if sumMetric(m, "infilter_pipeline_flows_total") >= float64(total) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pipeline analyzed %v flows, want %d",
					sumMetric(m, "infilter_pipeline_flows_total"), total)
			}
			time.Sleep(2 * time.Millisecond)
		}

		checks := []struct {
			name string
			want float64
		}{
			{"infilter_collector_datagrams_total", float64(spoofDatagrams + 2)},
			{"infilter_collector_records_total", float64(total)},
			{"infilter_collector_decode_errors_total", 1},
			{"infilter_pipeline_flows_total", float64(total)},
			{"infilter_eia_hits_total", float64(legal)},
			{"infilter_eia_misses_total", float64(spoofed)},
			{"infilter_alerts_sent_total", float64(alerts.Load())},
			{"infilter_pipeline_attacks_total", sumMetric(m, "infilter_alerts_sent_total")},
			{"infilter_pipeline_stage_latency_seconds_count", float64(total)},
		}
		for _, c := range checks {
			if got := sumMetric(m, c.name); got != c.want {
				t.Errorf("%s = %v, want %v", c.name, got, c.want)
			}
		}
		// Per-shard series exist for both workers.
		for _, shard := range []string{"0", "1"} {
			for _, name := range []string{
				`infilter_pipeline_flows_total{shard="` + shard + `"}`,
				`infilter_pipeline_queue_depth{shard="` + shard + `"}`,
				`infilter_pipeline_enqueue_blocks_total{shard="` + shard + `"}`,
			} {
				if _, ok := m[name]; !ok {
					t.Errorf("missing per-shard series %s", name)
				}
			}
		}

		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
	})
}

// TestNetFlowV9IngestEndToEnd is the acceptance test for the template-
// driven ingest path: a v9 stream is replayed over real UDP with the
// template datagram deliberately withheld until after the data sets, and
// one data datagram dropped in flight. The daemon must buffer the orphan
// sets, resolve and process every delivered flow once the template
// arrives, and the /metrics scrape must show the template learned, the
// orphans buffered and resolved, and the sequence gap from the drop.
func TestNetFlowV9IngestEndToEnd(t *testing.T) {
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
		"-stats", "1h", "-queue-depth", "64",
	}

	const batches, perBatch = 4, 10
	const dropped = 1 // one data datagram lost in flight
	const delivered = int64((batches - dropped) * perBatch)

	testutil.ExpectNoGoroutineGrowth(t, func() {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()

		ports, admin, cancel, done := startDaemon(t, args)
		defer cancel()
		base := "http://" + admin

		// Encode 4 data datagrams with the template withheld, then flush
		// the template datagram the encoder owes.
		boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
		now := boot.Add(time.Minute)
		enc := netflow.NewV9Encoder(boot, 7)
		enc.SetTemplateDelay(1000)
		var data [][]byte
		for i := 0; i < batches; i++ {
			var recs []flow.Record
			for j := 0; j < perBatch; j++ {
				recs = append(recs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			dgs := enc.Encode(recs, now)
			if len(dgs) != 1 {
				t.Fatalf("batch %d encoded into %d datagrams, want 1", i, len(dgs))
			}
			data = append(data, dgs[0].Raw)
		}
		tpl := enc.Flush(now)
		if len(tpl) != 1 {
			t.Fatalf("flush produced %d datagrams, want the withheld template", len(tpl))
		}

		// Template cache state is keyed by exporter address, so the whole
		// stream must leave one socket. Drop datagram 2 to force a
		// sequence gap; send the template last so every data set orphans.
		conn, err := net.Dial("udp", fmt.Sprintf("127.0.0.1:%d", ports[0]))
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range data {
			if i == 2 {
				continue
			}
			if _, err := conn.Write(raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(tpl[0].Raw); err != nil {
			t.Fatal(err)
		}
		conn.Close()

		// Every delivered flow is spoofed (99/8 in no EIA set): one alert
		// each, and none of them can fire before the template resolves the
		// buffered sets.
		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < delivered {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), delivered)
			}
			time.Sleep(2 * time.Millisecond)
		}

		m := scrapeAdmin(t, tr, base+"/metrics")
		checks := []struct {
			name string
			want float64
		}{
			{`infilter_netflow_datagrams_total{version="9"}`, batches - dropped + 1}, // + template datagram
			{"infilter_netflow_templates_learned_total", 1},
			{"infilter_netflow_orphans_buffered_total", batches - dropped},
			{"infilter_netflow_orphans_resolved_total", batches - dropped},
			{"infilter_netflow_sequence_gaps_total", dropped},
			{"infilter_collector_records_total", float64(delivered)},
			{"infilter_collector_decode_errors_total", 0},
		}
		for _, c := range checks {
			if got := sumMetric(m, c.name); got != c.want {
				t.Errorf("%s = %v, want %v", c.name, got, c.want)
			}
		}

		tr.CloseIdleConnections()
		stopDaemon(t, cancel, done)
	})
}

// startDaemon parses args the way run does, runs the daemon in the
// background and waits for readiness. It returns the bound ports, the
// admin address ("" without -admin-addr), a cancel that initiates
// shutdown, and the done channel carrying runWith's error.
func startDaemon(t *testing.T, args []string) (ports []int, admin string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cfg, err := parseConfig(args)
	if err != nil {
		t.Fatalf("parseConfig(%v): %v", args, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type readyInfo struct {
		ports []int
		admin string
	}
	ready := make(chan readyInfo, 1)
	done = make(chan error, 1)
	go func() {
		done <- runWith(ctx, cfg, func(p []int, a string) { ready <- readyInfo{ports: p, admin: a} })
	}()
	select {
	case r := <-ready:
		return r.ports, r.admin, cancel, done
	case err := <-done:
		cancel()
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return nil, "", nil, nil
}

func stopDaemon(t *testing.T, cancel context.CancelFunc, done chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestWarmRestartReproducesVerdicts is the acceptance test for -state-dir:
// a daemon started with preloaded EIA sets and a state dir is driven with a
// trace of legal and spoofed flows, terminated, and restarted WITHOUT the
// EIA preload. The restarted daemon must reproduce the pre-restart verdict
// pattern on the replayed trace — legal sources stay silent, spoofed
// sources alert — which is only possible if the EIA state survived through
// the checkpoint flushed during the shutdown drain.
func TestWarmRestartReproducesVerdicts(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	stateDir := t.TempDir()
	eiaPath := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(eiaPath, []byte("1 61.0.0.0/11\n2 70.0.0.0/11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{
		"-ports", "0,0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-state-dir", stateDir, "-checkpoint-interval", "1h",
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	}

	const perDatagram = 10
	const spoofed = int64(2 * perDatagram)

	// replay sends one datagram of legal peer-1 flows (61/11, in peer 1's
	// EIA set) and two of spoofed flows (99/8, in no set), then waits for
	// exactly the spoofed alerts.
	replay := func(ports []int, wantAlerts int64) {
		t.Helper()
		var legalRecs []flow.Record
		for j := 0; j < perDatagram; j++ {
			legalRecs = append(legalRecs, testRec(fmt.Sprintf("61.0.7.%d", j+1), 9, 4040, flow.ProtoTCP, 80))
		}
		sendRaw(t, ports[0], v5Raw(t, legalRecs))
		for i := 0; i < 2; i++ {
			var spoofRecs []flow.Record
			for j := 0; j < perDatagram; j++ {
				spoofRecs = append(spoofRecs, testRec(fmt.Sprintf("99.0.%d.%d", i, j+1), 1, 404, flow.ProtoUDP, 1434))
			}
			sendRaw(t, ports[i%len(ports)], v5Raw(t, spoofRecs))
		}
		deadline := time.Now().Add(10 * time.Second)
		for alerts.Load() < wantAlerts {
			if time.Now().After(deadline) {
				t.Fatalf("got %d alerts, want %d", alerts.Load(), wantAlerts)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// First run: EIA preload + state dir. The 1h checkpoint interval never
	// fires during the test, so the state on disk can only come from the
	// shutdown flush.
	ports, _, cancel, done := startDaemon(t, append([]string{"-eia-file", eiaPath}, base...))
	replay(ports, spoofed)
	stopDaemon(t, cancel, done)
	if _, err := os.Stat(filepath.Join(stateDir, "eia.ckpt")); err != nil {
		t.Fatalf("shutdown flush wrote no EIA checkpoint: %v", err)
	}

	// Restart WITHOUT -eia-file: the verdicts must come from the checkpoint.
	ports, _, cancel, done = startDaemon(t, base)
	replay(ports, 2*spoofed)
	stopDaemon(t, cancel, done)

	// The drain completed and the alert connection flushed before run
	// returned; give the TCP consumer a beat, then require that the legal
	// flows stayed silent both before and after the restart.
	time.Sleep(200 * time.Millisecond)
	if n := alerts.Load(); n != 2*spoofed {
		t.Errorf("got %d alerts across both runs, want %d (legal flows alerted after restart)", n, 2*spoofed)
	}
}

// TestWarmRestartLoadsDetector proves the NNS side of warm restart: the
// first EI-mode run trains a detector and checkpoints it on shutdown; the
// second run is started with -train-flows 0, which makes training
// impossible (nns.Train rejects an empty training set), so it can only
// become ready by loading nns.ckpt from the state dir.
func TestWarmRestartLoadsDetector(t *testing.T) {
	stateDir := t.TempDir()
	base := []string{
		"-ports", "0", "-mode", "EI",
		"-state-dir", stateDir, "-checkpoint-interval", "1h",
		"-stats", "1h",
	}

	_, _, cancel, done := startDaemon(t, append([]string{"-train-flows", "500", "-train-seed", "3"}, base...))
	stopDaemon(t, cancel, done)
	if _, err := os.Stat(filepath.Join(stateDir, "nns.ckpt")); err != nil {
		t.Fatalf("shutdown flush wrote no NNS checkpoint: %v", err)
	}

	_, _, cancel, done = startDaemon(t, append([]string{"-train-flows", "0"}, base...))
	stopDaemon(t, cancel, done)
}

// TestWarmRestartFromV1GoldenCheckpoint seeds the state dir with a
// committed pre-dual-stack (v1) EIA checkpoint — the exact bytes an
// older daemon wrote — and starts WITHOUT -eia-file. The daemon must
// restore its verdict state from the legacy file (legal sources silent,
// spoofed sources alerting), and the shutdown flush must rewrite the
// file in the v2 family-tagged format: upgrade-on-write.
func TestWarmRestartFromV1GoldenCheckpoint(t *testing.T) {
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	stateDir := t.TempDir()
	golden, err := os.ReadFile(filepath.Join("testdata", "eia_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "eia.ckpt"), golden, 0o644); err != nil {
		t.Fatal(err)
	}

	ports, _, cancel, done := startDaemon(t, []string{
		"-ports", "0", "-mode", "BI",
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-state-dir", stateDir, "-checkpoint-interval", "1h",
		"-stats", "1h", "-workers", "2", "-queue-depth", "64",
	})
	const perDatagram = 10
	var legalRecs, spoofRecs []flow.Record
	for j := 0; j < perDatagram; j++ {
		legalRecs = append(legalRecs, testRec(fmt.Sprintf("61.0.9.%d", j+1), 9, 4040, flow.ProtoTCP, 80))
		spoofRecs = append(spoofRecs, testRec(fmt.Sprintf("99.1.0.%d", j+1), 1, 404, flow.ProtoUDP, 1434))
	}
	sendRaw(t, ports[0], v5Raw(t, legalRecs))
	sendRaw(t, ports[0], v5Raw(t, spoofRecs))
	deadline := time.Now().Add(10 * time.Second)
	for alerts.Load() < perDatagram {
		if time.Now().After(deadline) {
			t.Fatalf("got %d alerts, want %d", alerts.Load(), perDatagram)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopDaemon(t, cancel, done)
	time.Sleep(200 * time.Millisecond)
	if n := alerts.Load(); n != perDatagram {
		t.Errorf("got %d alerts, want %d (legal flows must stay silent off the v1 state)", n, perDatagram)
	}

	upgraded, err := os.ReadFile(filepath.Join(stateDir, "eia.ckpt"))
	if err != nil {
		t.Fatalf("shutdown flush left no EIA checkpoint: %v", err)
	}
	if !strings.HasPrefix(string(upgraded), "# infilter-eia-checkpoint v2\n") {
		t.Errorf("checkpoint not upgraded to v2:\n%s", upgraded)
	}
	for _, row := range []string{"1 4 61.0.0.0/11", "2 4 70.0.0.0/11"} {
		if !strings.Contains(string(upgraded), row+"\n") {
			t.Errorf("upgraded checkpoint missing row %q:\n%s", row, upgraded)
		}
	}
}

// TestRunRejectsBadFlags covers the pre-listen validation paths. The
// context is already canceled, so a row that wrongly starts the daemon
// shuts straight down and fails here instead of hanging the test.
func TestRunRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-mode", "XX"},
		{"-ports", "abc"},
		{"-ports", "5001,5001"},
		{"-no-such-flag"},
		{"-eia-file", filepath.Join(t.TempDir(), "missing")},
		{"-batch-size", "-1"},
		{"-batch-size", "0"}, // the per-record fork is gone: 1 is the minimum
		{"-batch-timeout", "0s"},
		{"-batch-timeout", "-1s"},
		{"-stats", "0"}, // would panic in time.NewTicker after the listeners bind
		{"-stats", "-1s"},
		// Negative values are refused, not replaced by a default.
		{"-workers", "-1"},
		{"-queue-depth", "-1"},
		{"-readers", "-1"},
		{"-train-flows", "-1"},
		{"-mode", "EI", "-ttl-tolerance", "-2"},
		{"-checkpoint-interval", "-1s"},
		// The TTL stage runs only in EI mode.
		{"-mode", "BI", "-ttl-tolerance", "2"},
		// Removed settings must fail the parse, not be silently ignored.
		{"-heavy-hitter-threshold", "5"},
		{"-heavy-hitter-counters", "64"},
		{"-heavy-hitter-stages", "2"},
		{"-heavy-hitter-decay-every", "10"},
		{"-eia-bloom-hashes", "3"},
		{"-scan-sketch-k", "64"},
		{"-template-max", "4096"},
		{"-template-ttl", "30m"},
		{"-orphan-max", "512"},
		{"-eia-bloom-bits-per-entry", "10"},
		{"-cluster-listen", "127.0.0.1:7000"},
		{"-cluster-peers", "127.0.0.1:7001"},
		{"-cluster-node", "10.0.0.1:7000"},
		{"-replicate-interval", "1s"},
	} {
		if err := run(ctx, args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

// TestParseConfigResolvesDefaults pins what parseConfig fills in: the
// mode is case-blind and -workers 0 means one shard per port.
func TestParseConfigResolvesDefaults(t *testing.T) {
	cfg, err := parseConfig([]string{"-ports", "0,0,0", "-mode", "bi"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.mode != analysis.ModeBasic || cfg.workers != 3 {
		t.Errorf("parseConfig = %+v", cfg)
	}
}

// reserveTCPAddr grabs a free loopback TCP address and releases it, so a
// test can name an address that the daemon binds or that nobody serves.
func reserveTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRunFailedStartReleasesEverything fails the daemon's start at the
// alert dial — nobody listens there — after the admin server and the
// checkpoint manager are already up. run must return the error and leave
// no goroutine and no listener behind.
func TestRunFailedStartReleasesEverything(t *testing.T) {
	adminAddr, alertAddr := reserveTCPAddr(t), reserveTCPAddr(t)
	testutil.ExpectNoGoroutineGrowth(t, func() {
		err := run(context.Background(), []string{
			"-ports", "0", "-mode", "BI", "-stats", "1h",
			"-admin-addr", adminAddr,
			"-state-dir", t.TempDir(), "-checkpoint-interval", "1h",
			"-alert", alertAddr,
		})
		if err == nil || !strings.Contains(err.Error(), alertAddr) {
			t.Fatalf("run = %v, want the alert dial error", err)
		}
	})
	if conn, err := net.DialTimeout("tcp", adminAddr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after the failed start", adminAddr)
	}
}

func TestTrainDetectorSmoke(t *testing.T) {
	d, err := trainDetector(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Clusters()) == 0 {
		t.Error("no clusters trained")
	}
}

func TestObtainDetectorTrainsSavesAndLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	trained, err := obtainDetector(path, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("model not saved: %v", statErr)
	}
	if _, statErr := os.Stat(path + ".tmp"); !os.IsNotExist(statErr) {
		t.Errorf("temporary model file left behind: %v", statErr)
	}
	loaded, err := obtainDetector(path, 999, 10) // params ignored on load
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Clusters()) != len(trained.Clusters()) {
		t.Errorf("loaded %d clusters, trained %d", len(loaded.Clusters()), len(trained.Clusters()))
	}
}
