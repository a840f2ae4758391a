package flowtools

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
)

func rec(src string, dstPort uint16, proto uint8, packets, bytes uint32, dur time.Duration) flow.Record {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	return flow.Record{
		Key: flow.Key{
			Src:     netaddr.MustParseAddr(src),
			Dst:     netaddr.MustParseAddr("192.0.2.1"),
			Proto:   proto,
			SrcPort: 1234,
			DstPort: dstPort,
		},
		Packets: packets,
		Bytes:   bytes,
		Start:   start,
		End:     start.Add(dur),
		SrcAS:   77,
		DstAS:   1,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStoreWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []flow.Record
	for i := 0; i < 50; i++ {
		r := rec("61.0.0.1", uint16(80+i), flow.ProtoTCP, uint32(i+1), uint32(100*i+40), time.Duration(i)*time.Millisecond)
		r.TCPFlag = uint8(i % 64)
		r.SrcMask = 11
		r.DstMask = 24
		want = append(want, r)
		if err := sw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStoreReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestStoreReaderErrors(t *testing.T) {
	if _, err := NewStoreReader(bytes.NewReader([]byte("NOPE\x00\x01\x00\x00"))); !errors.Is(err, ErrBadStore) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := NewStoreReader(bytes.NewReader([]byte("IFFS\x00\x07\x00\x00"))); !errors.Is(err, ErrBadStoreVers) {
		t.Errorf("bad version: %v", err)
	}
	var buf bytes.Buffer
	sw, _ := NewStoreWriter(&buf)
	if err := sw.Write(rec("1.2.3.4", 80, flow.ProtoTCP, 1, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	sr, err := NewStoreReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record: %v", err)
	}
}

func TestReportGroupByDstPort(t *testing.T) {
	recs := []flow.Record{
		rec("61.0.0.1", 80, flow.ProtoTCP, 10, 1000, time.Second),
		rec("61.0.0.2", 80, flow.ProtoTCP, 20, 3000, time.Second),
		rec("61.0.0.3", 25, flow.ProtoTCP, 5, 500, 2*time.Second),
	}
	groups := Report(recs, []GroupField{GroupDstPort})
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	// Sorted by key string: "25" < "80".
	if groups[0].Key != "25" || groups[1].Key != "80" {
		t.Errorf("group keys %q, %q", groups[0].Key, groups[1].Key)
	}
	g80 := groups[1]
	if g80.Flows != 2 || g80.Packets != 30 || g80.Bytes != 4000 {
		t.Errorf("port 80 group = %+v", g80)
	}
	if g80.Duration != 2*time.Second {
		t.Errorf("summed duration %v", g80.Duration)
	}
	// Mean of 8*1000/1 and 8*3000/1.
	if g80.AvgBitRate != (8000+24000)/2.0 {
		t.Errorf("AvgBitRate = %v", g80.AvgBitRate)
	}
}

func TestReportGroupBySrcAS(t *testing.T) {
	a := rec("61.0.0.1", 80, flow.ProtoTCP, 1, 40, 0)
	b := rec("61.0.0.2", 80, flow.ProtoTCP, 1, 40, 0)
	b.SrcAS = 88
	groups := Report([]flow.Record{a, b}, []GroupField{GroupSrcAS})
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
}

func TestGroupFieldNames(t *testing.T) {
	if GroupSrcAddr.String() != "ip-source-address" {
		t.Errorf("GroupSrcAddr = %q", GroupSrcAddr.String())
	}
	if GroupField(99).String() != "group-field(99)" {
		t.Errorf("unknown = %q", GroupField(99).String())
	}
}

func TestFilter(t *testing.T) {
	recs := []flow.Record{
		rec("61.0.0.1", 80, flow.ProtoTCP, 1, 40, 0),
		rec("61.0.0.2", 53, flow.ProtoUDP, 1, 60, 0),
		rec("61.0.0.3", 80, flow.ProtoTCP, 1, 40, 0),
	}
	got := Filter(recs, func(r flow.Record) bool { return r.Key.Proto == flow.ProtoTCP })
	if len(got) != 2 {
		t.Errorf("filtered %d, want 2", len(got))
	}
	if got := Filter(nil, func(flow.Record) bool { return true }); got != nil {
		t.Errorf("Filter(nil) = %v", got)
	}
}

func TestASCIIRoundTrip(t *testing.T) {
	input := "214.96.0.1,192.0.2.1,17,1234,1000,4,3,1,7,1112313600000000000,1112313601500000000,77,1\n" +
		"2001:db8::1,2001:db8:2000::9,6,65535,80,255,65535,4294967295,4294967295,-1,0,65535,0\n"
	got, err := ReadASCII(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	want := []flow.Record{
		{
			Key: flow.Key{
				Src: netaddr.MustParseAddr("214.96.0.1"), Dst: netaddr.MustParseAddr("192.0.2.1"),
				Proto: flow.ProtoUDP, SrcPort: 1234, DstPort: 1000, TOS: 4, InputIf: 3,
			},
			Packets: 1, Bytes: 7,
			Start: start, End: start.Add(1500 * time.Millisecond),
			SrcAS: 77, DstAS: 1,
		},
		{
			Key: flow.Key{
				Src: netaddr.MustParseAddr("2001:db8::1"), Dst: netaddr.MustParseAddr("2001:db8:2000::9"),
				Proto: flow.ProtoTCP, SrcPort: 65535, DstPort: 80, TOS: 255, InputIf: 65535,
			},
			Packets: 4294967295, Bytes: 4294967295,
			Start: time.Unix(0, -1).UTC(), End: time.Unix(0, 0).UTC(),
			SrcAS: 65535, DstAS: 0,
		},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestASCIIIgnoresCommentsAndBlanks(t *testing.T) {
	input := "# header comment\n\n61.0.0.1,192.0.2.1,6,1234,80,0,0,1,40,0,0,77,1\n"
	got, err := ReadASCII(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d records", len(got))
	}
}

func TestASCIIParseErrors(t *testing.T) {
	for _, in := range []string{
		"not,enough,fields\n",
		"bad-ip,192.0.2.1,6,1,80,0,0,1,40,0,0,0,0\n",
		"61.0.0.1,bad-ip,6,1,80,0,0,1,40,0,0,0,0\n",
		"61.0.0.1,192.0.2.1,x,1,80,0,0,1,40,0,0,0,0\n",
		"61.0.0.1,192.0.2.1,300,1,80,0,0,1,40,0,0,0,0\n",   // proto past 8 bits
		"61.0.0.1,192.0.2.1,6,1,70000,0,0,1,40,0,0,0,0\n",  // dst port past 16 bits
		"61.0.0.1,192.0.2.1,6,1,80,0,0,-1,40,0,0,0,0\n",    // negative packet count
		"61.0.0.1,192.0.2.1,6,1,80,0,0,1,40,0,0,0,65536\n", // dst AS past 16 bits
	} {
		if _, err := ReadASCII(strings.NewReader(in)); err == nil {
			t.Errorf("ReadASCII(%q): want error", in)
		}
	}
}

// source is where one delivered datagram came from.
type source struct {
	LocalPort int
	Exporter  string
	Version   uint16
}

// testCollectorReceives drives 45 records through one listener with the
// given encoder (split 30+15 across datagrams, template datagrams if the
// format uses them) and checks delivery, source metadata and stats.
func testCollectorReceives(t *testing.T, enc netflow.WireEncoder) {
	t.Helper()
	var (
		mu   sync.Mutex
		got  []flow.Record
		srcs []source
		port int
	)
	// MaxRecords 1 is per-datagram delivery: every batch is one datagram's
	// records, so Batch.Exporter/Version identify exactly where it came from.
	c := New(Config{MaxRecords: 1}, func(b Batch) {
		mu.Lock()
		defer mu.Unlock()
		if b.Port == port {
			got = append(got, b.Records...)
			srcs = append(srcs, source{LocalPort: b.Port, Exporter: b.Exporter, Version: b.Version})
		}
	})
	p, err := c.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A stray datagram can reach the reader before Listen returns, so the
	// port the callback filters on is published under the same lock.
	mu.Lock()
	port = p
	mu.Unlock()

	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for i := 0; i < 45; i++ {
		recs = append(recs, rec("61.0.0.1", uint16(80+i), flow.ProtoTCP, 2, 120, time.Second))
	}
	conn, err := net.Dial("udp", net.JoinHostPort("127.0.0.1", itoa(p)))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, d := range enc.Encode(recs, boot.Add(time.Minute)) {
		if _, err := conn.Write(d.Raw); err != nil {
			t.Fatal(err)
		}
	}
	// Also send garbage; the collector must drop it and keep running.
	if _, err := conn.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 45 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d records, want 45", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	first := got[0]
	src := srcs[0]
	mu.Unlock()
	if first.Key.Src.String() != "61.0.0.1" || first.Packets != 2 {
		t.Errorf("first record %+v", first)
	}
	if src.Version != enc.Version() {
		t.Errorf("source version %d, want %d", src.Version, enc.Version())
	}
	if src.Exporter == "" {
		t.Error("source exporter empty")
	}

	// Malformed counter eventually ticks.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, mal := c.Stats(); mal >= 1 {
			break
		}
		if time.Now().After(deadline) {
			recv, mal := c.Stats()
			t.Fatalf("stats recv=%d malformed=%d, want malformed>=1", recv, mal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if recv, _ := c.Stats(); recv != 45 {
		t.Errorf("stats recv=%d, want 45", recv)
	}
}

func TestCollectorReceivesDatagrams(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	t.Run("v5", func(t *testing.T) { testCollectorReceives(t, netflow.NewV5Encoder(boot, 1)) })
	t.Run("v9", func(t *testing.T) { testCollectorReceives(t, netflow.NewV9Encoder(boot, 1)) })
	t.Run("ipfix", func(t *testing.T) { testCollectorReceives(t, netflow.NewIPFIXEncoder(1)) })
}

func TestCollectorCloseIdempotentAndBlocksListen(t *testing.T) {
	c := New(Config{}, func(Batch) {})
	if _, err := c.Listen(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Listen(0); !errors.Is(err, ErrCollectorClosed) {
		t.Errorf("Listen after Close: %v", err)
	}
}

func TestStoreRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var buf bytes.Buffer
	sw, err := NewStoreWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []flow.Record
	for i := 0; i < 200; i++ {
		r := flow.Record{
			Key: flow.Key{
				Src:     netaddr.IPv4(rng.Uint32()).Addr(),
				Dst:     netaddr.IPv4(rng.Uint32()).Addr(),
				Proto:   uint8(rng.Intn(256)),
				SrcPort: uint16(rng.Intn(65536)),
				DstPort: uint16(rng.Intn(65536)),
				TOS:     uint8(rng.Intn(256)),
				InputIf: uint16(rng.Intn(65536)),
			},
			Packets: rng.Uint32(),
			Bytes:   rng.Uint32(),
			Start:   time.Unix(rng.Int63n(1<<31), int64(rng.Intn(1e9))).UTC(),
			End:     time.Unix(rng.Int63n(1<<31), int64(rng.Intn(1e9))).UTC(),
			SrcAS:   uint16(rng.Intn(65536)),
			DstAS:   uint16(rng.Intn(65536)),
			SrcMask: uint8(rng.Intn(33)),
			DstMask: uint8(rng.Intn(33)),
			TCPFlag: uint8(rng.Intn(256)),
		}
		want = append(want, r)
		if err := sw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStoreReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
