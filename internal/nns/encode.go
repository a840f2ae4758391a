// Package nns implements the approximate nearest-neighbor search of
// Kushilevitz, Ostrovsky and Rabani ("Efficient Search for Approximate
// Nearest Neighbor in High Dimensional Spaces", SIAM J. Comput. 30(2))
// as used by Enhanced InFilter (paper §4.2, Figures 6-8). The paper unary
// encodes five flow statistics into {0,1}^d, dC = d/5 bits each, and
// searches that cube under Hamming distance with probabilistic traces,
// per-distance tables and a binary search over the distance scale.
//
// A unary code is fixed by its five run lengths, so a flow is held as
// those five levels in [0, dC] (Levels); only the model file spells out
// its d bits. The Hamming distance between two codes is the L1 distance
// between their levels, and a test vector's parity over a code is the XOR
// of one precomputed prefix parity per statistic. Every test vector,
// table entry and search result is the one the bit-level construction
// gives.
package nns

import (
	"fmt"
	"math"

	"infilter/internal/flow"
)

// Levels is one unary-encoded flow: per statistic, the length of its run
// of ones, which is the level its value falls in.
type Levels [flow.NumStats]uint8

// Distance is the Hamming distance between the unary codes of a and b
// (procedure HD in the paper): the L1 distance between their levels.
func Distance(a, b Levels) int {
	d := 0
	for s := range a {
		x := int(a[s]) - int(b[s])
		d += max(x, -x)
	}
	return d
}

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

// checkDim refuses a dimension d whose dC = d/5 levels do not fit Levels.
func checkDim(d int) error {
	if d <= 0 || d%flow.NumStats != 0 || d/flow.NumStats > math.MaxUint8 {
		return fmt.Errorf("nns: dimension %d not a positive multiple of %d with at most %d bits per statistic",
			d, flow.NumStats, math.MaxUint8)
	}
	return nil
}

// NewEncoder builds an encoder of dimension d (a multiple of
// flow.NumStats, at most 255 bits per statistic) over the given ranges.
func NewEncoder(d int, ranges [flow.NumStats]StatRange) (*Encoder, error) {
	if err := checkDim(d); err != nil {
		return nil, err
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

// Encode produces the unary representation of a statistics vector: per
// characteristic, I ones followed by dC-I zeros, held as the five I.
func (e *Encoder) Encode(s flow.Stats) Levels {
	var out Levels
	vec := s.Vector()
	for stat := range out {
		out[stat] = uint8(e.Level(stat, vec[stat]))
	}
	return out
}

// EncodeRecord encodes a flow record's statistics.
func (e *Encoder) EncodeRecord(r flow.Record) Levels {
	return e.Encode(flow.StatsOf(r))
}
