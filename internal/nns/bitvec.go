// Package nns implements the approximate nearest-neighbor search of
// Kushilevitz, Ostrovsky and Rabani ("Efficient Search for Approximate
// Nearest Neighbor in High Dimensional Spaces", SIAM J. Comput. 30(2))
// as used by Enhanced InFilter (paper §4.2, Figures 6-8): flows are unary
// encoded into {0,1}^d, probabilistic traces hash them into per-distance
// tables, and queries binary-search the distance scale.
package nns

import (
	"fmt"
	"math/bits"
)

// BitVec is a fixed-length bit vector in {0,1}^d backed by 64-bit words.
type BitVec struct {
	bits []uint64
	n    int
}

// NewBitVec returns an all-zero vector of n bits.
func NewBitVec(n int) BitVec {
	return BitVec{bits: make([]uint64, wordsFor(n)), n: n}
}

// wordsFor is the number of 64-bit words backing n bits.
func wordsFor(n int) int { return (n + 63) / 64 }

// Len returns the number of bits.
func (v BitVec) Len() int { return v.n }

// Set sets bit i to 1.
func (v BitVec) Set(i int) {
	v.bits[i>>6] |= 1 << (uint(i) & 63)
}

// Get returns bit i.
func (v BitVec) Get(i int) bool {
	return v.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// OnesCount returns the number of set bits.
func (v BitVec) OnesCount() int {
	total := 0
	for _, w := range v.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// Hamming returns the Hamming distance between v and u (procedure HD in
// the paper, generalized to d bits).
func (v BitVec) Hamming(u BitVec) int {
	if v.n != u.n {
		panic(fmt.Sprintf("nns: Hamming of %d-bit and %d-bit vectors", v.n, u.n))
	}
	total := 0
	for i := range v.bits {
		total += bits.OnesCount64(v.bits[i] ^ u.bits[i])
	}
	return total
}

// Clone returns an independent copy of v.
func (v BitVec) Clone() BitVec {
	out := BitVec{bits: make([]uint64, len(v.bits)), n: v.n}
	copy(out.bits, v.bits)
	return out
}

// Words exposes the backing words (least-significant bit first). The
// returned slice aliases the vector; callers must not mutate it. Used by
// the detector serializer.
func (v BitVec) Words() []uint64 { return v.bits }

// FromWords reconstructs a BitVec of n bits from backing words (the
// inverse of Words). The words slice is copied.
func FromWords(words []uint64, n int) (BitVec, error) {
	if len(words) != wordsFor(n) {
		return BitVec{}, fmt.Errorf("nns: %d words cannot back %d bits", len(words), n)
	}
	out := BitVec{bits: make([]uint64, len(words)), n: n}
	copy(out.bits, words)
	return out, nil
}

// Equal reports bitwise equality.
func (v BitVec) Equal(u BitVec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.bits {
		if v.bits[i] != u.bits[i] {
			return false
		}
	}
	return true
}
