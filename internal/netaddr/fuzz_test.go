package netaddr

import (
	"net/netip"
	"testing"
)

// FuzzParseAddr checks ParseAddr against net/netip, whose grammar it
// adopts. Invariants:
//   - ParseAddr accepts exactly when netip accepts and the input has no
//     zone ("%zone"): flow records carry no scope;
//   - when both accept, the canonical strings agree (RFC 5952 for v6,
//     dotted quad for v4);
//   - anything ParseAddr accepts round-trips: ParseAddr(a.String()) == a.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "255.255.255.255", "192.0.2.33", "10.0.0.1",
		"::", "::1", "2001:db8::1", "fe80::dead:beef",
		"::ffff:10.1.2.3", "64:ff9b::198.51.100.7",
		"1:0:0:2:0:0:0:3", "1:2:3:4:5:6:7:8",
		"1::2::3", ":::", "fe80::1%eth0", "012.3.4.5", "",
		"::ffff:01.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		mine, myErr := ParseAddr(s)
		theirs, theirErr := netip.ParseAddr(s)
		if want := theirErr == nil && theirs.Zone() == ""; (myErr == nil) != want {
			t.Fatalf("ParseAddr(%q) error %v; netip: %v, %v", s, myErr, theirs, theirErr)
		}
		if myErr != nil {
			return
		}
		if mine.String() != theirs.String() {
			t.Fatalf("canonical form of %q: mine %q, netip %q", s, mine.String(), theirs.String())
		}
		back, err := ParseAddr(mine.String())
		if err != nil || back != mine {
			t.Fatalf("round trip: %q -> %v -> %q -> %v, %v", s, mine, mine.String(), back, err)
		}
	})
}

// FuzzTrieInsertV6 drives the 128-bit trie walk with fuzz-shaped v6 (and
// mixed v4) prefix sets, checking exact Get, longest-prefix Lookup
// against a linear scan, and the copy-on-write contract of
// InsertPersistent (old snapshots never observe later inserts).
func FuzzTrieInsertV6(f *testing.F) {
	f.Add([]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 32})
	f.Add([]byte{
		0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 48,
		0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 128,
		10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		const rec = 17 // 16 address bytes + 1 bits byte
		n := len(data) / rec
		if n == 0 || n > 64 {
			return
		}
		tr := NewPrefixTrie[int]()
		snap := NewPrefixTrie[int]()
		var prefixes []Prefix
		for i := 0; i < n; i++ {
			chunk := data[i*rec : (i+1)*rec]
			var a Addr
			var bits int
			if chunk[16]&1 == 0 { // mix families on the low bit
				var b16 [16]byte
				copy(b16[:], chunk[:16])
				a = AddrFrom16(b16)
				bits = int(chunk[16]) % 129
			} else {
				a = AddrFrom4(chunk[0], chunk[1], chunk[2], chunk[3])
				bits = int(chunk[16]) % 33
			}
			p := MustPrefix(a, bits)
			prefixes = append(prefixes, p)
			tr.Insert(p, i)
			snap = snap.InsertPersistent(p, i)
		}
		if tr.Len() != snap.Len() {
			t.Fatalf("Len: mutable %d, persistent %d", tr.Len(), snap.Len())
		}
		lpm := func(a Addr) (int, bool) {
			bestBits, bestVal, ok := -1, 0, false
			for j, p := range prefixes {
				if p.Contains(a) && p.Bits() >= bestBits {
					// >= : later equal-length inserts overwrite.
					bestBits, bestVal, ok = p.Bits(), j, true
				}
			}
			return bestVal, ok
		}
		for i, p := range prefixes {
			// Exact Get sees the last value written at that prefix.
			want := i
			for j := i + 1; j < n; j++ {
				if prefixes[j] == p {
					want = j
				}
			}
			for _, u := range []*PrefixTrie[int]{tr, snap} {
				if got, ok := u.Get(p); !ok || got != want {
					t.Fatalf("Get(%v) = %d, %v; want %d", p, got, ok, want)
				}
			}
			for _, probe := range []Addr{p.Addr(), p.Last()} {
				wantVal, wantOK := lpm(probe)
				for _, u := range []*PrefixTrie[int]{tr, snap} {
					got, ok := u.Lookup(probe)
					if ok != wantOK || (ok && got != wantVal) {
						t.Fatalf("Lookup(%v) = %d, %v; want %d, %v", probe, got, ok, wantVal, wantOK)
					}
				}
			}
		}
		// COW: a snapshot taken mid-sequence never sees the next insert.
		if n >= 2 {
			mid := NewPrefixTrie[int]().InsertPersistent(prefixes[0], 0)
			after := mid.InsertPersistent(prefixes[1], 1)
			if prefixes[0] != prefixes[1] {
				if _, ok := mid.Get(prefixes[1]); ok {
					t.Fatalf("snapshot observed a later insert of %v", prefixes[1])
				}
			}
			if got, ok := after.Get(prefixes[1]); !ok || got != 1 {
				t.Fatalf("successor lost its own insert of %v", prefixes[1])
			}
		}
	})
}
