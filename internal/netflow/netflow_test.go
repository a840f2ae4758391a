package netflow

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/packet"
)

// sampleRecord is a v4 flow whose v5 fields all vary with i; odd i also
// varies the byte-sized fields (protocol, TOS, TCP flags, masks).
func sampleRecord(boot time.Time, i int) flow.Record {
	r := flow.Record{
		Key: flow.Key{
			Src: netaddr.IPv4(0x0a000000 + uint32(i)).Addr(), Dst: netaddr.IPv4(0xc0000201).Addr(),
			Proto: flow.ProtoTCP, SrcPort: uint16(1024 + i), DstPort: 80, InputIf: uint16(i % 4),
		},
		Packets: uint32(10 + i), Bytes: uint32(4000 + i),
		Start: boot.Add(time.Duration(1000*i) * time.Millisecond),
		End:   boot.Add(time.Duration(1000*i+500) * time.Millisecond),
		SrcAS: uint16(100 + i), DstAS: 65000, SrcMask: 11, DstMask: 24,
		TCPFlag: packet.FlagSYN | packet.FlagACK,
	}
	if i%2 == 1 {
		r.Key.Proto = flow.ProtoUDP
		r.Key.TOS = uint8(i)
		r.TCPFlag = 0
		r.SrcMask = uint8(8 + i%24)
		r.DstMask = uint8(i)
	}
	return r
}

// equalRecord reports whether two records agree in every field, times
// compared as instants.
func equalRecord(a, b flow.Record) bool {
	if !a.Start.Equal(b.Start) || !a.End.Equal(b.End) {
		return false
	}
	a.Start, a.End, b.Start, b.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return a == b
}

// decodeAll decodes every datagram through one buffer and returns the
// messages.
func decodeAll(t *testing.T, dgs []WireDatagram) []Message {
	t.Helper()
	buf := NewDecodeBuffer(nil)
	var msgs []Message
	for _, d := range dgs {
		msg, err := Decode(d.Raw, buf)
		if err != nil {
			t.Fatal(err)
		}
		msg.Records = append([]flow.Record(nil), msg.Records...)
		msgs = append(msgs, msg)
	}
	return msgs
}

// TestDatagramRoundTrip encodes one full v5 datagram whose records vary
// every field and decodes it: the header comes back through Message
// (sequence, engine id as Domain, export time to the nanosecond),
// sysUptime through the records' Start and End, and every record equal.
func TestDatagramRoundTrip(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	now := boot.Add(123456 * time.Millisecond) // nonzero UnixNsecs
	var want []flow.Record
	for i := 0; i < MaxRecords; i++ {
		want = append(want, sampleRecord(boot, i))
	}
	enc := NewV5Encoder(boot, 7)
	enc.Encode(want[:12], boot) // move the flow sequence to 12
	dgs := enc.Encode(want, now)
	if len(dgs) != 1 || dgs[0].Flows != MaxRecords || len(dgs[0].Raw) != v5HeaderSize+MaxRecords*v5RecordSize {
		t.Fatalf("encoded %d datagrams, first %d flows in %d bytes", len(dgs), dgs[0].Flows, len(dgs[0].Raw))
	}
	msg := decodeAll(t, dgs)[0]
	if msg.Version != VersionV5 || msg.Sequence != 12 || msg.Domain != 7 || !msg.ExportTime.Equal(now) {
		t.Errorf("header: version=%d seq=%d domain=%d export=%v", msg.Version, msg.Sequence, msg.Domain, msg.ExportTime)
	}
	if len(msg.Records) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(msg.Records), len(want))
	}
	for i := range want {
		if !equalRecord(msg.Records[i], want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, msg.Records[i], want[i])
		}
	}
}

// errAny marks a TestUnmarshalErrors row whose error has no sentinel.
var errAny = errors.New("any error")

// TestUnmarshalErrors feeds Decode corrupt v5 datagrams: each must fail,
// with its sentinel error where it has one.
func TestUnmarshalErrors(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for i := 0; i < MaxRecords+1; i++ {
		recs = append(recs, sampleRecord(boot, i))
	}
	dgs := NewV5Encoder(boot, 0).Encode(recs, boot.Add(time.Minute))
	full, one := dgs[0].Raw, dgs[1].Raw
	badVersion := append([]byte(nil), one...)
	badVersion[1] = 99
	// 31 records' worth of bytes under a count of 31: more than a v5
	// datagram may carry, though the length agrees.
	over := append(append([]byte(nil), full...), one[v5HeaderSize:]...)
	over[3] = MaxRecords + 1
	// Export seconds and nanoseconds both 0xffffffff: a nanoseconds word
	// of 1e9 or more is no instant.
	badNsecs := append([]byte(nil), one...)
	copy(badNsecs[8:16], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"one byte", one[:1], ErrShortDatagram},
		{"header cut", one[:10], ErrShortDatagram},
		{"unknown version", badVersion, ErrBadVersion},
		{"truncated record", one[:len(one)-1], ErrBadCount},
		{"count above MaxRecords", over, ErrBadCount},
		{"nanoseconds out of range", badNsecs, errAny},
	} {
		if _, err := Decode(tc.raw, NewDecodeBuffer(nil)); err == nil || tc.want != errAny && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFlowRecordConversionRoundTrip exports one flow 200 s after boot:
// its uptime-relative stamps must resolve back to the flow's own Start
// and End, and every other field survive.
func TestFlowRecordConversionRoundTrip(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	fr := flow.Record{
		Key: flow.Key{
			Src:     netaddr.MustParseAddr("61.2.3.4"),
			Dst:     netaddr.MustParseAddr("192.0.2.9"),
			Proto:   flow.ProtoUDP,
			SrcPort: 9999,
			DstPort: 53,
			InputIf: 2,
		},
		Packets: 3,
		Bytes:   300,
		Start:   boot.Add(90 * time.Second),
		End:     boot.Add(91 * time.Second),
		SrcAS:   1224,
		DstAS:   1,
		SrcMask: 11,
	}
	msgs := decodeAll(t, NewV5Encoder(boot, 0).Encode([]flow.Record{fr}, boot.Add(200*time.Second)))
	if len(msgs) != 1 || len(msgs[0].Records) != 1 {
		t.Fatalf("decoded %d datagrams", len(msgs))
	}
	if back := msgs[0].Records[0]; !equalRecord(back, fr) {
		t.Errorf("got %+v want %+v", back, fr)
	}
}

func pkt(ts time.Time, src string, dport uint16, proto uint8, length uint16, tcpFlags uint8) packet.Packet {
	return packet.Packet{
		Time:     ts,
		Src:      netaddr.MustParseAddr(src),
		Dst:      netaddr.MustParseAddr("192.0.2.1"),
		Proto:    proto,
		SrcPort:  5555,
		DstPort:  dport,
		Length:   length,
		TCPFlags: tcpFlags,
	}
}

func TestCacheAggregatesPackets(t *testing.T) {
	c := NewCache(CacheConfig{})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		c.Observe(pkt(t0.Add(time.Duration(i)*time.Second), "10.0.0.1", 80, flow.ProtoTCP, 100, packet.FlagACK), 1)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d flows, want 1", c.Len())
	}
	c.FlushAll()
	recs := c.Drain()
	if len(recs) != 1 {
		t.Fatalf("drained %d records", len(recs))
	}
	r := recs[0]
	if r.Packets != 5 || r.Bytes != 500 {
		t.Errorf("counters %d/%d, want 5/500", r.Packets, r.Bytes)
	}
	if r.Duration() != 4*time.Second {
		t.Errorf("duration %v", r.Duration())
	}
}

func TestCacheIdleTimeout(t *testing.T) {
	c := NewCache(CacheConfig{IdleTimeout: 10 * time.Second})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	c.Observe(pkt(t0, "10.0.0.1", 80, flow.ProtoTCP, 40, packet.FlagACK), 1)
	c.Advance(t0.Add(5 * time.Second))
	if len(c.Drain()) != 0 {
		t.Error("flow expired before idle timeout")
	}
	c.Advance(t0.Add(11 * time.Second))
	if got := len(c.Drain()); got != 1 {
		t.Errorf("drained %d after idle timeout, want 1", got)
	}
	if c.Len() != 0 {
		t.Errorf("cache still holds %d", c.Len())
	}
}

func TestCacheActiveTimeout(t *testing.T) {
	c := NewCache(CacheConfig{ActiveTimeout: 30 * time.Second, IdleTimeout: time.Hour})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	// Continuous traffic: active timeout must still chop the flow.
	for i := 0; i < 40; i++ {
		c.Observe(pkt(t0.Add(time.Duration(i)*time.Second), "10.0.0.1", 80, flow.ProtoTCP, 40, packet.FlagACK), 1)
	}
	recs := c.Drain()
	if len(recs) != 1 {
		t.Fatalf("drained %d mid-flow records, want 1 active-timeout chop", len(recs))
	}
	if recs[0].Packets != 30 {
		t.Errorf("first segment had %d packets, want 30", recs[0].Packets)
	}
	c.FlushAll()
	rest := c.Drain()
	if len(rest) != 1 || rest[0].Packets != 10 {
		t.Errorf("second segment %+v", rest)
	}
}

func TestCacheFINExpiry(t *testing.T) {
	c := NewCache(CacheConfig{ExpireOnFINRST: true})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	c.Observe(pkt(t0, "10.0.0.1", 80, flow.ProtoTCP, 40, packet.FlagSYN), 1)
	c.Observe(pkt(t0.Add(time.Second), "10.0.0.1", 80, flow.ProtoTCP, 40, packet.FlagACK), 1)
	c.Observe(pkt(t0.Add(2*time.Second), "10.0.0.1", 80, flow.ProtoTCP, 40, packet.FlagFIN|packet.FlagACK), 1)
	recs := c.Drain()
	if len(recs) != 1 {
		t.Fatalf("drained %d after FIN, want 1", len(recs))
	}
	if recs[0].Packets != 3 {
		t.Errorf("packets = %d, want 3", recs[0].Packets)
	}
	if recs[0].TCPFlag&packet.FlagFIN == 0 {
		t.Error("cumulative TCP flags missing FIN")
	}
	// RST also expires.
	c.Observe(pkt(t0.Add(3*time.Second), "10.0.0.2", 80, flow.ProtoTCP, 40, packet.FlagRST), 1)
	if len(c.Drain()) != 1 {
		t.Error("RST did not expire flow")
	}
}

func TestCacheUDPIgnoresFINConfig(t *testing.T) {
	c := NewCache(CacheConfig{ExpireOnFINRST: true})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	p := pkt(t0, "10.0.0.1", 53, flow.ProtoUDP, 60, packet.FlagFIN) // garbage flags on UDP
	c.Observe(p, 1)
	if len(c.Drain()) != 0 {
		t.Error("UDP flow expired on TCP flag bits")
	}
}

func TestCacheEvictionAtCapacity(t *testing.T) {
	c := NewCache(CacheConfig{MaxEntries: 3})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	srcs := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}
	for i, s := range srcs {
		c.Observe(pkt(t0.Add(time.Duration(i)*time.Millisecond), s, 80, flow.ProtoTCP, 40, packet.FlagACK), 1)
	}
	if c.Len() != 3 {
		t.Errorf("cache len %d, want 3", c.Len())
	}
	recs := c.Drain()
	if len(recs) != 1 {
		t.Fatalf("evicted %d, want 1", len(recs))
	}
	if got := recs[0].Key.Src.String(); got != "10.0.0.1" {
		t.Errorf("evicted %s, want oldest 10.0.0.1", got)
	}
}

func TestCacheDistinctKeysDistinctFlows(t *testing.T) {
	c := NewCache(CacheConfig{})
	t0 := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	c.Observe(pkt(t0, "10.0.0.1", 80, flow.ProtoTCP, 40, 0), 1)
	c.Observe(pkt(t0, "10.0.0.1", 443, flow.ProtoTCP, 40, 0), 1)
	c.Observe(pkt(t0, "10.0.0.1", 80, flow.ProtoUDP, 40, 0), 1)
	c.Observe(pkt(t0, "10.0.0.1", 80, flow.ProtoTCP, 40, 0), 2) // different ifIndex
	if c.Len() != 4 {
		t.Errorf("cache len %d, want 4 distinct flows", c.Len())
	}
}

// TestV5EncoderSequencesAndSplits encodes 65 records: they must split
// 30/30/5, the flow sequence must count records across datagrams and
// Encode calls, and sysUptime must resolve every record's stamps back.
func TestV5EncoderSequencesAndSplits(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	enc := NewV5Encoder(boot, 3)
	if enc.Version() != VersionV5 {
		t.Errorf("Version = %d", enc.Version())
	}
	var recs []flow.Record
	for i := 0; i < 65; i++ {
		recs = append(recs, flow.Record{
			Key:     flow.Key{Src: netaddr.IPv4(uint32(i)).Addr(), Proto: flow.ProtoTCP, DstPort: 80},
			Packets: 1, Bytes: 40,
			Start: boot.Add(time.Second), End: boot.Add(2 * time.Second),
		})
	}
	dgs := enc.Encode(recs, boot.Add(time.Minute))
	if len(dgs) != 3 {
		t.Fatalf("%d datagrams, want 3 (30+30+5)", len(dgs))
	}
	if dgs[0].Flows != 30 || dgs[1].Flows != 30 || dgs[2].Flows != 5 {
		t.Errorf("split %d/%d/%d", dgs[0].Flows, dgs[1].Flows, dgs[2].Flows)
	}
	if enc.Encode(nil, boot) != nil || enc.Flush(boot) != nil {
		t.Error("Encode of no records and Flush must emit nothing")
	}
	// The next call continues the sequence.
	dgs = append(dgs, enc.Encode(recs[:1], boot.Add(2*time.Minute))...)
	var seqs []uint32
	for _, msg := range decodeAll(t, dgs) {
		seqs = append(seqs, msg.Sequence)
		if msg.Domain != 3 || msg.SeqGap != 0 {
			t.Errorf("seq %d: domain %d, gap %d", msg.Sequence, msg.Domain, msg.SeqGap)
		}
		for _, r := range msg.Records {
			if !r.Start.Equal(boot.Add(time.Second)) || !r.End.Equal(boot.Add(2*time.Second)) {
				t.Fatalf("seq %d: stamps %v-%v, want boot+1s-boot+2s", msg.Sequence, r.Start, r.End)
			}
		}
	}
	if want := []uint32{0, 30, 60, 65}; !slices.Equal(seqs, want) {
		t.Errorf("sequences %v, want %v", seqs, want)
	}
}

func TestEndToEndPacketsToDatagramToFlow(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	c := NewCache(CacheConfig{ExpireOnFINRST: true})

	t0 := boot.Add(10 * time.Second)
	c.Observe(pkt(t0, "61.5.6.7", 80, flow.ProtoTCP, 400, packet.FlagSYN), 4)
	c.Observe(pkt(t0.Add(time.Second), "61.5.6.7", 80, flow.ProtoTCP, 1000, packet.FlagACK), 4)
	c.Observe(pkt(t0.Add(2*time.Second), "61.5.6.7", 80, flow.ProtoTCP, 40, packet.FlagFIN), 4)
	dgs := NewV5Encoder(boot, 1).Encode(c.Drain(), t0.Add(20*time.Second))
	if len(dgs) != 1 {
		t.Fatalf("%d datagrams", len(dgs))
	}
	msg, err := Decode(dgs[0].Raw, NewDecodeBuffer(nil))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Version != VersionV5 || len(msg.Records) != 1 {
		t.Fatalf("version %d, %d records", msg.Version, len(msg.Records))
	}
	fr := msg.Records[0]
	if fr.Key.Src.String() != "61.5.6.7" || fr.Key.DstPort != 80 || fr.Key.InputIf != 4 {
		t.Errorf("key %+v", fr.Key)
	}
	if fr.Packets != 3 || fr.Bytes != 1440 {
		t.Errorf("counters %d/%d", fr.Packets, fr.Bytes)
	}
	if fr.Duration() != 2*time.Second {
		t.Errorf("duration %v", fr.Duration())
	}
}

// TestDatagramRandomRoundTrip round-trips random v4 records at random
// boot and export times (millisecond-aligned, as v5 stamps are) through
// V5Encoder and Decode.
func TestDatagramRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ms := func() time.Duration { return time.Duration(rng.Uint32()) * time.Millisecond }
	for trial := 0; trial < 25; trial++ {
		boot := time.UnixMilli(rng.Int63n(1 << 41))
		now := boot.Add(ms())
		engineID := uint8(rng.Intn(256))
		want := make([]flow.Record, rng.Intn(MaxRecords)+1)
		for i := range want {
			want[i] = flow.Record{
				Key: flow.Key{
					Src: netaddr.IPv4(rng.Uint32()).Addr(), Dst: netaddr.IPv4(rng.Uint32()).Addr(),
					Proto: uint8(rng.Intn(256)), TOS: uint8(rng.Intn(256)),
					SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
					InputIf: uint16(rng.Intn(65536)),
				},
				Packets: rng.Uint32(), Bytes: rng.Uint32(),
				Start: boot.Add(ms()), End: boot.Add(ms()),
				SrcAS: uint16(rng.Intn(65536)), DstAS: uint16(rng.Intn(65536)),
				SrcMask: uint8(rng.Intn(33)), DstMask: uint8(rng.Intn(33)),
				TCPFlag: uint8(rng.Intn(256)),
			}
		}
		msg := decodeAll(t, NewV5Encoder(boot, engineID).Encode(want, now))[0]
		if msg.Domain != uint32(engineID) || !msg.ExportTime.Equal(now) {
			t.Fatalf("trial %d: domain %d export %v, want %d %v", trial, msg.Domain, msg.ExportTime, engineID, now)
		}
		for i := range want {
			if !equalRecord(msg.Records[i], want[i]) {
				t.Fatalf("trial %d record %d: got %+v want %+v", trial, i, msg.Records[i], want[i])
			}
		}
	}
}
