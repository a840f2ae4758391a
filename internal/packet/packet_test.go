package packet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

func samplePacket(i int) Packet {
	return Packet{
		Time:     time.Date(2005, 4, 1, 0, 0, 0, i*1000, time.UTC),
		Src:      netaddr.IPv4(0x0a000001 + uint32(i)).Addr(),
		Dst:      netaddr.IPv4(0xc0000201).Addr(),
		Proto:    flow.ProtoTCP,
		SrcPort:  uint16(1024 + i),
		DstPort:  80,
		TOS:      0,
		Length:   uint16(40 + i),
		TCPFlags: FlagSYN,
	}
}

func TestFlowKey(t *testing.T) {
	p := samplePacket(0)
	k := p.FlowKey(3)
	if k.Src != p.Src || k.Dst != p.Dst || k.Proto != p.Proto ||
		k.SrcPort != p.SrcPort || k.DstPort != p.DstPort || k.InputIf != 3 {
		t.Errorf("FlowKey = %+v from %+v", k, p)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []Packet
	for i := 0; i < 100; i++ {
		p := samplePacket(i)
		if i%7 == 0 {
			p.Proto = flow.ProtoUDP
			p.DstPort = 1434
			p.TCPFlags = 0
		}
		if i%11 == 0 {
			p.MoreFrag = true
			p.FragOff = uint16(i)
		}
		want = append(want, p)
		if err := tw.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("packet %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTraceReaderRejectsBadMagic(t *testing.T) {
	_, err := NewTraceReader(bytes.NewReader([]byte("XXXX\x00\x01\x00\x00")))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v, want ErrBadTrace", err)
	}
}

func TestTraceReaderRejectsBadVersion(t *testing.T) {
	_, err := NewTraceReader(bytes.NewReader([]byte("IFTR\x00\x09\x00\x00")))
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTraceReaderShortHeader(t *testing.T) {
	_, err := NewTraceReader(bytes.NewReader([]byte("IF")))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("err = %v, want ErrBadTrace", err)
	}
}

func TestTraceReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(samplePacket(1)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tr, err := NewTraceReader(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Read(); !errors.Is(err, ErrShortRecord) {
		t.Errorf("err = %v, want ErrShortRecord", err)
	}
}

func TestTraceEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	pkts, err := NewMustReader(t, buf.Bytes()).ReadAll()
	if err != nil || len(pkts) != 0 {
		t.Errorf("ReadAll on empty trace = %d pkts, %v", len(pkts), err)
	}
}

// NewMustReader is a test helper building a TraceReader over raw bytes.
func NewMustReader(t *testing.T, raw []byte) *TraceReader {
	t.Helper()
	tr, err := NewTraceReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		var buf bytes.Buffer
		tw, err := NewTraceWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(50) + 1
		var want []Packet
		for i := 0; i < n; i++ {
			p := Packet{
				Time:     time.Unix(rng.Int63n(1<<32), int64(rng.Intn(1e9))).UTC(),
				Src:      netaddr.IPv4(rng.Uint32()).Addr(),
				Dst:      netaddr.IPv4(rng.Uint32()).Addr(),
				Proto:    uint8(rng.Intn(256)),
				SrcPort:  uint16(rng.Intn(65536)),
				DstPort:  uint16(rng.Intn(65536)),
				TOS:      uint8(rng.Intn(256)),
				Length:   uint16(rng.Intn(65536)),
				TCPFlags: uint8(rng.Intn(64)),
				FragOff:  uint16(rng.Intn(1 << 13)),
				MoreFrag: rng.Intn(2) == 1,
			}
			want = append(want, p)
			if err := tw.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewMustReader(t, buf.Bytes()).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d packet %d mismatch:\n got %+v\nwant %+v", trial, i, got[i], want[i])
			}
		}
	}
}
