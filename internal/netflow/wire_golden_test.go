package netflow

import (
	"encoding/hex"
	"flag"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// appendWire encodes batches through e, one Encode call per batch a
// second apart, then flushes it, appending one hex line per datagram.
func appendWire(out []byte, e WireEncoder, batches [][]flow.Record, now time.Time) []byte {
	for i, b := range batches {
		for _, d := range e.Encode(b, now.Add(time.Duration(i)*time.Second)) {
			out = fmt.Appendf(out, "encode flows=%d %s\n", d.Flows, hex.EncodeToString(d.Raw))
		}
	}
	for _, d := range e.Flush(now.Add(time.Minute)) {
		out = fmt.Appendf(out, "flush %s\n", hex.EncodeToString(d.Raw))
	}
	return out
}

// TestV5EncoderWireGolden pins the exact bytes the v5 encoder emits for
// the v4-only stream of TestTemplateEncoderWireGolden (v5 carries no v6
// and announces no template). The benign-v5 benchmark corpus is built
// through this encoder.
func TestV5EncoderWireGolden(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	v4 := exportSample(45)
	out := []byte("# v4-only\n")
	out = appendWire(out, NewV5Encoder(boot, 7), [][]flow.Record{v4, v4[:7]}, boot.Add(time.Hour))
	testutil.Golden(t, filepath.Join("testdata", "wire_v5.golden"), out, *update)
}

// TestTemplateEncoderWireGolden pins the exact bytes the v9 and IPFIX
// encoders emit: every datagram of a fixed set of streams, at template
// delays 0, 2 and "withheld until Flush", one hex line per datagram.
// The decode goldens are hand-built datagrams, so this and
// TestV5EncoderWireGolden are what hold the encoders (and the benchmark
// corpus built through them) still.
func TestTemplateEncoderWireGolden(t *testing.T) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	now := boot.Add(time.Hour)
	v4, v6 := exportSample(45), exportSample6(37)
	// Each stream is a sequence of Encode batches, none a multiple of
	// MaxRecords, so chunk tails and sequence continuation across calls
	// are covered.
	streams := []struct {
		name    string
		batches [][]flow.Record
	}{
		{"v4-only", [][]flow.Record{v4, v4[:7]}},
		{"v6-only", [][]flow.Record{v6}},
		{"alternating", [][]flow.Record{
			exportSampleMixed(4),
			append(append(append([]flow.Record(nil), v4[:35]...), v6[:31]...), v4[35:40]...),
		}},
	}
	type delayEncoder interface {
		WireEncoder
		SetTemplateDelay(int)
	}
	for _, enc := range []struct {
		file string
		new  func() delayEncoder
	}{
		{"wire_v9.golden", func() delayEncoder { return NewV9Encoder(boot, 7) }},
		{"wire_ipfix.golden", func() delayEncoder { return NewIPFIXEncoder(7) }},
	} {
		var out []byte
		for _, s := range streams {
			for _, delay := range []int{0, 2, 100} {
				e := enc.new()
				e.SetTemplateDelay(delay)
				out = fmt.Appendf(out, "# %s delay=%d\n", s.name, delay)
				out = appendWire(out, e, s.batches, now)
			}
		}
		testutil.Golden(t, filepath.Join("testdata", enc.file), out, *update)
	}
}
