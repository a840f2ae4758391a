package nns

import (
	"fmt"
	"math"

	"infilter/internal/flow"
)

// StatRange bounds one flow characteristic for unary encoding: values in
// [Min,Max] are divided into the per-characteristic bit budget's intervals
// (paper §4.2's worked example); out-of-range values clamp. With Log set,
// intervals are equal in log(1+v) space — flow statistics span four-plus
// orders of magnitude, and logarithmic interval division keeps both benign
// tails and attack extremes resolvable where a linear division would clamp
// them onto the same level.
type StatRange struct {
	Min float64
	Max float64
	Log bool
}

// Encoder unary-encodes the five flow statistics into {0,1}^d. With the
// paper's d=720 each characteristic gets dC = 144 bits.
type Encoder struct {
	d      int
	dc     int
	ranges [flow.NumStats]StatRange
}

// DefaultD is the encoding dimension used in the paper's experiments.
const DefaultD = 720

// DefaultRanges bounds the five statistics (bytes, packets, duration ms,
// bit rate, packet rate) with log-scale interval division wide enough that
// attack extremes stay distinguishable from clamped benign tails.
func DefaultRanges() [flow.NumStats]StatRange {
	return [flow.NumStats]StatRange{
		{Min: 0, Max: 10_000_000, Log: true},  // bytes
		{Min: 0, Max: 10_000, Log: true},      // packets
		{Min: 0, Max: 600_000, Log: true},     // duration ms
		{Min: 0, Max: 100_000_000, Log: true}, // bit rate
		{Min: 0, Max: 10_000, Log: true},      // packet rate
	}
}

// NewEncoder builds an encoder of dimension d (a multiple of
// flow.NumStats) over the given ranges.
func NewEncoder(d int, ranges [flow.NumStats]StatRange) (*Encoder, error) {
	if d <= 0 || d%flow.NumStats != 0 {
		return nil, fmt.Errorf("nns: dimension %d not a positive multiple of %d", d, flow.NumStats)
	}
	for i, r := range ranges {
		if r.Max <= r.Min {
			return nil, fmt.Errorf("nns: stat %d range [%v,%v] empty", i, r.Min, r.Max)
		}
	}
	return &Encoder{d: d, dc: d / flow.NumStats, ranges: ranges}, nil
}

// MustDefaultEncoder returns the paper-parameter encoder (d=720, default
// ranges); it panics only on programming error.
func MustDefaultEncoder() *Encoder {
	e, err := NewEncoder(DefaultD, DefaultRanges())
	if err != nil {
		panic(err)
	}
	return e
}

// D returns the encoding dimension.
func (e *Encoder) D() int { return e.d }

// Level maps one statistic value to its interval index in [0, dC].
func (e *Encoder) Level(stat int, v float64) int {
	r := e.ranges[stat]
	if v <= r.Min {
		return 0
	}
	if v >= r.Max {
		return e.dc
	}
	if r.Log {
		return int(float64(e.dc) * math.Log1p(v-r.Min) / math.Log1p(r.Max-r.Min))
	}
	return int(float64(e.dc) * (v - r.Min) / (r.Max - r.Min))
}

// Encode produces the unary d-bit representation of a statistics vector:
// per characteristic, I ones followed by dC-I zeros, concatenated.
func (e *Encoder) Encode(s flow.Stats) BitVec {
	return e.encodeInto(nil, s)
}

// encodeInto is Encode writing into buf when it has room for d bits (a new
// vector is allocated otherwise). Each statistic's run of ones is filled a
// word at a time.
func (e *Encoder) encodeInto(buf []uint64, s flow.Stats) BitVec {
	n := wordsFor(e.d)
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	out := BitVec{bits: buf[:n], n: e.d}
	clear(out.bits)
	vec := s.Vector()
	for stat := 0; stat < flow.NumStats; stat++ {
		base := stat * e.dc
		setRun(out.bits, base, base+e.Level(stat, vec[stat]))
	}
	return out
}

// setRun sets bits [lo, hi) of words.
func setRun(words []uint64, lo, hi int) {
	for lo < hi {
		off := uint(lo) & 63
		n := min(hi-lo, 64-int(off))
		words[lo>>6] |= (^uint64(0) >> (64 - uint(n))) << off
		lo += n
	}
}

// EncodeRecord encodes a flow record's statistics.
func (e *Encoder) EncodeRecord(r flow.Record) BitVec {
	return e.Encode(flow.StatsOf(r))
}
