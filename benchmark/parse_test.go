package main

import (
	"math"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
)

const procNetUDPFixture = `   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
  427: 0100007F:8AD5 00000000:0000 07 00000000:0003F300 00:00000000 00000000     0        0 29135 2 0000000000000000 7
  911: 00000000:0044 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 18400 2 0000000000000000 0
 1200: 0100007F:EC98 0100007F:8AD5 01 00000000:00000000 00:00000000 00000000     0        0 30001 2 0000000000000000 0
 1303: 0100007F:1F90 00000000:0000 07 00000000:00000000 00:00000000 00000000  1000        0 29136 2 0000000000000000 0
`

func TestParseProcNetUDP(t *testing.T) {
	socks := parseProcNetUDP([]byte(procNetUDPFixture), [livePeers]int{0x8AD5, 0x1F90})
	want := [livePeers]udpSock{{rxQueue: 0x3F300, drops: 7, found: true}, {found: true}}
	if socks != want {
		t.Fatalf("got %+v, want %+v", socks, want)
	}
	// A connected socket whose *remote* port matches is not the listener,
	// and a port nobody holds is reported as not found.
	socks = parseProcNetUDP([]byte(procNetUDPFixture), [livePeers]int{0xEC99, 0x0045})
	if socks[0].found || socks[1].found {
		t.Fatalf("found sockets that are not there: %+v", socks)
	}
	if socks = parseProcNetUDP([]byte("garbage\n\n  1: zz:zz\n"), [livePeers]int{1, 2}); socks[0].found || socks[1].found {
		t.Fatalf("parsed garbage: %+v", socks)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel allows.
	const line = "4242 (infil) terd) S 1 4242 4242 0 -1 4194560 1203 0 0 0 731 212 0 0 20 0 9 0 8812 1300000000 30100 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	cpu, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != (procCPU{user: 731, sys: 212}) {
		t.Fatalf("got %+v", cpu)
	}
	if _, err := parseProcStat([]byte("1 (x) S 1 2")); err == nil {
		t.Fatal("short line parsed")
	}
	status := []byte("Name:\tinfilterd\nVmHWM:\t  134212 kB\nvoluntary_ctxt_switches:\t91\n")
	if v, ok := statusValue(status, "VmHWM"); !ok || v != 134212 {
		t.Fatalf("VmHWM: %d %v", v, ok)
	}
	if _, ok := statusValue(status, "VmRSS"); ok {
		t.Fatal("found a key that is not there")
	}
}

const promFixture = `# HELP infilter_pipeline_flows_total Flows processed.
# TYPE infilter_pipeline_flows_total counter
infilter_pipeline_flows_total{shard="0"} 1200
infilter_pipeline_flows_total{shard="1"} 34
infilter_pipeline_flows_total_bogus 999
infilter_alerts_sent_total 17
infilter_pipeline_queue_depth{shard="0"} 3
infilter_pipeline_queue_depth{shard="1"} 11
infilter_nns_query_latency_seconds_sum 1.5e-05
infilter_ingest_batch_flushes_total{reason="timeout"} 2
not a sample line at all
`

func TestParseProm(t *testing.T) {
	m := parseProm([]byte(promFixture))
	for _, c := range []struct {
		got, want float64
	}{
		{m.sum("infilter_pipeline_flows_total"), 1234},
		{m.sum("infilter_alerts_sent_total"), 17},
		{m.sum("infilter_absent_total"), 0},
		{m.max("infilter_pipeline_queue_depth"), 11},
		{m["infilter_nns_query_latency_seconds_sum"], 1.5e-05},
		{m[`infilter_ingest_batch_flushes_total{reason="timeout"}`], 2},
	} {
		if c.got != c.want {
			t.Errorf("got %v, want %v", c.got, c.want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := highestPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("n=%d: got p%v %v, want p%v %v", c.n, p, ok, c.want, c.ok)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// p99 of 1..1000 is 990: ten samples lie beyond it.
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1.5, 9, 3, 7.25, 4, 10, 2, 8, 6, 5], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1.5, 9, 3, 7.25, 4, 10, 2, 8, 6, 5})
	for i, pair := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d: got %v, want %v", i+1, pair[0], pair[1])
		}
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("two values: got %v %v %v", q1, q2, q3)
	}
}

func TestParseAlertFrameMatchesUnmarshal(t *testing.T) {
	for _, k := range []flow.Key{
		{Src: netaddr.MustParseAddr("176.1.2.3"), Dst: netaddr.MustParseAddr("10.1.0.100"), SrcPort: 40000, DstPort: 80},
		{Src: netaddr.MustParseAddr("2001:db8:f000::1"), Dst: netaddr.MustParseAddr("fd00:10::8"), SrcPort: 1, DstPort: 65535},
	} {
		want := idmef.NewAlert("infilter-9", time.Unix(1, 0), idmef.StageNNS, 2, "spoofed-traffic/nns-search", k, 311)
		raw, err := idmef.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseAlertFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		// The reference reader must agree on every field the fast one takes.
		slow, err := idmef.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got.stage != slow.Assessment.Stage || got.key != keyOf(k) ||
			got.key.src.String() != slow.Source.Address || got.key.sport != slow.Source.Port ||
			got.key.dst.String() != slow.Target.Address || got.key.dport != slow.Target.Port {
			t.Errorf("fast reader %+v disagrees with idmef.Unmarshal %+v", got, slow)
		}
	}
	if _, err := parseAlertFrame([]byte("<Alert><Address>1.2.3.4</Address></Alert>")); err == nil {
		t.Error("a frame without ports and stage parsed")
	}
}
