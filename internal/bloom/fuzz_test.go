package bloom

import (
	"encoding/binary"
	"testing"
)

// FuzzBloomMembership replays a random insert/query sequence against a
// map oracle: the filter must never report a false negative (a key the
// oracle holds testing negative), at any fill level, for any filter
// geometry the input selects. False positives are expected and ignored —
// they are the contract's allowed error direction.
func FuzzBloomMembership(f *testing.F) {
	f.Add(uint16(64), uint8(10), []byte{})
	f.Add(uint16(1), uint8(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint16(1000), uint8(8),
		[]byte{1, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, capacity uint16, bitsPerEntry uint8, ops []byte) {
		filter := New(int(capacity), int(bitsPerEntry), uint64(capacity)^uint64(bitsPerEntry)<<8)
		oracle := make(map[uint64]bool)
		for len(ops) >= 9 {
			op, key := ops[0], binary.LittleEndian.Uint64(ops[1:9])
			ops = ops[9:]
			if op&1 == 0 {
				filter.Add(key)
				oracle[key] = true
			}
			if oracle[key] && !filter.Test(key) {
				t.Fatalf("false negative: key %#x inserted but Test says absent (n=%d, bits=%d, k=%d)",
					key, filter.Entries(), filter.Bits(), filter.K())
			}
		}
		if len(oracle) != 0 {
			// Full sweep: every inserted key must still test positive, and a
			// clone must agree with the original on the oracle set.
			c := filter.Clone()
			for key := range oracle {
				if !filter.Test(key) {
					t.Fatalf("final sweep: false negative for %#x", key)
				}
				if !c.Test(key) {
					t.Fatalf("clone lost key %#x", key)
				}
			}
		}
	})
}
