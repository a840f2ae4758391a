package bloom

import "math/bits"

// hash64 is the seeded 64-bit mix every structure in this package keys
// its probes from. It is the XXH3-64 short-input (4–8 byte) path
// specialized to exactly-8-byte little-endian keys: the two 32-bit input
// halves are folded against the seed-perturbed secret and finished with
// the rrmxmx avalanche. Specializing to the fixed width keeps the whole
// hash branch-free and inlineable — the filter keys (masked address,
// prefix length) are always packed into one uint64 — while retaining
// xxh3's avalanche quality, which the double-hashing probe derivation
// below leans on.
//
// The two secret words are readLE64(kSecret+8) and readLE64(kSecret+16)
// of the reference implementation's default secret.
const (
	xxhSecret8  = 0x1cad21f72c81017c
	xxhSecret16 = 0xdb979083e96dd4de
	rrmxmxMul   = 0x9fb21c651e98df25
)

func hash64(key, seed uint64) uint64 {
	seed ^= uint64(bits.ReverseBytes32(uint32(seed))) << 32
	// An 8-byte little-endian buffer holding key reads back as:
	// first four bytes = low word, last four bytes = high word.
	input1 := uint64(uint32(key))       // readLE32(buf)
	input2 := uint64(uint32(key >> 32)) // readLE32(buf+4)
	bitflip := (xxhSecret8 ^ xxhSecret16) - seed
	keyed := (input2 + input1<<32) ^ bitflip
	// rrmxmx(keyed, len=8)
	h := keyed
	h ^= bits.RotateLeft64(h, 49) ^ bits.RotateLeft64(h, 24)
	h *= rrmxmxMul
	h ^= (h >> 35) + 8
	h *= rrmxmxMul
	h ^= h >> 28
	return h
}
