package netaddr

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTrieInsertGet(t *testing.T) {
	tr := NewPrefixTrie[string]()
	p1 := MustParsePrefix("4.0.0.0/8")
	p2 := MustParsePrefix("4.2.101.0/24")

	if !tr.Insert(p1, "as3356") {
		t.Error("first insert should report added")
	}
	if tr.Insert(p1, "as3356b") {
		t.Error("second insert of same prefix should report replaced")
	}
	tr.Insert(p2, "as6325")

	if got, ok := tr.Get(p1); !ok || got != "as3356b" {
		t.Errorf("Get(%v) = %q, %v", p1, got, ok)
	}
	if got, ok := tr.Get(p2); !ok || got != "as6325" {
		t.Errorf("Get(%v) = %q, %v", p2, got, ok)
	}
	if _, ok := tr.Get(MustParsePrefix("4.0.0.0/9")); ok {
		t.Error("Get of absent prefix should miss")
	}
	if tr.Len() != 2 {
		t.Errorf("Len() = %d, want 2", tr.Len())
	}
}

// TestTrieLongestPrefixMatch covers the paper's §3.2 case: 4.2.101.0/24 is
// more specific than 4.0.0.0/8, so 4.2.101.20 must resolve through the /24.
func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := NewPrefixTrie[string]()
	tr.Insert(MustParsePrefix("4.0.0.0/8"), "peer3356")
	tr.Insert(MustParsePrefix("4.2.101.0/24"), "peer6325")

	tests := []struct {
		ip   string
		want string
	}{
		{"4.2.101.20", "peer6325"},
		{"4.2.101.255", "peer6325"},
		{"4.2.102.1", "peer3356"},
		{"4.255.0.1", "peer3356"},
	}
	for _, tt := range tests {
		got, ok := tr.Lookup(MustParseAddr(tt.ip))
		if !ok || got != tt.want {
			t.Errorf("Lookup(%s) = %q, %v; want %q", tt.ip, got, ok, tt.want)
		}
	}
	if _, ok := tr.Lookup(MustParseAddr("5.0.0.1")); ok {
		t.Error("Lookup outside any prefix should miss")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tr := NewPrefixTrie[int]()
	tr.Insert(PrefixFrom4(0, 0), 99)
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)

	if got, ok := tr.Lookup(MustParseAddr("10.1.2.3")); !ok || got != 1 {
		t.Errorf("Lookup under /8 = %d, %v", got, ok)
	}
	if got, ok := tr.Lookup(MustParseAddr("11.1.2.3")); !ok || got != 99 {
		t.Errorf("Lookup default = %d, %v", got, ok)
	}
}

func TestTrieWalkOrder(t *testing.T) {
	tr := NewPrefixTrie[int]()
	ins := []string{"10.0.0.0/8", "4.0.0.0/8", "4.2.101.0/24", "192.0.2.0/24"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []string
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	want := append([]string(nil), ins...)
	sort.Slice(want, func(i, j int) bool {
		a, b := MustParsePrefix(want[i]), MustParsePrefix(want[j])
		if a.Addr() != b.Addr() {
			return a.Addr().Less(b.Addr())
		}
		return a.Bits() < b.Bits()
	})
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Walk[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTrieWalkEarlyStop(t *testing.T) {
	tr := NewPrefixTrie[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(PrefixFrom4(IPv4(i)<<24, 8), i)
	}
	n := 0
	tr.Walk(func(Prefix, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("Walk visited %d after early stop, want 3", n)
	}
}

// randomTriePrefix emits a random corpus prefix from either address
// family: a v4 prefix over the full 32-bit space, or a v6 prefix inside
// a deliberately small 2001:db8::/32 pool so lookups land inside stored
// prefixes often enough to exercise real matches, not just misses.
func randomTriePrefix(rng *rand.Rand) Prefix {
	if rng.Intn(2) == 0 {
		return PrefixFrom4(IPv4(rng.Uint32()), rng.Intn(25)+8)
	}
	return MustPrefix(randomTrieAddr6(rng), rng.Intn(89)+40)
}

// randomTrieAddr emits a random probe address, half v4, half from the
// same constrained v6 pool randomTriePrefix draws from.
func randomTrieAddr(rng *rand.Rand) Addr {
	if rng.Intn(2) == 0 {
		return IPv4(rng.Uint32()).Addr()
	}
	return randomTrieAddr6(rng)
}

func randomTrieAddr6(rng *rand.Rand) Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	b[4] = byte(rng.Intn(4))
	b[7] = byte(rng.Intn(4))
	b[11] = byte(rng.Intn(4))
	b[15] = byte(rng.Intn(8))
	return AddrFrom16(b)
}

// TestTrieMatchesLinearScan cross-checks longest-prefix match against a
// brute-force scan over random dual-stack prefix sets.
func TestTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		tr := NewPrefixTrie[int]()
		var prefixes []Prefix
		for i := 0; i < 50; i++ {
			p := randomTriePrefix(rng)
			prefixes = append(prefixes, p)
			tr.Insert(p, i)
		}
		for i := 0; i < 200; i++ {
			ip := randomTrieAddr(rng)
			wantBits, wantVal, wantOK := -1, -1, false
			for j, p := range prefixes {
				if p.Contains(ip) && p.Bits() > wantBits {
					wantBits, wantVal, wantOK = p.Bits(), j, true
				}
			}
			// Later inserts of an equal prefix overwrite earlier ones.
			if wantOK {
				for j, p := range prefixes {
					if p.Contains(ip) && p.Bits() == wantBits {
						wantVal = j
					}
				}
			}
			got, ok := tr.Lookup(ip)
			if ok != wantOK || (ok && got != wantVal) {
				t.Fatalf("trial %d: Lookup(%v) = %d, %v; want %d, %v",
					trial, ip, got, ok, wantVal, wantOK)
			}
		}
	}
}

// TestTrieInsertPersistent checks the copy-on-write contract: the old
// trie is observationally unchanged by inserts into its successors.
func TestTrieInsertPersistent(t *testing.T) {
	t0 := NewPrefixTrie[string]()
	t1 := t0.InsertPersistent(MustParsePrefix("4.0.0.0/8"), "a")
	t2 := t1.InsertPersistent(MustParsePrefix("4.2.101.0/24"), "b")
	t3 := t2.InsertPersistent(MustParsePrefix("4.0.0.0/8"), "a2") // replace

	if t0.Len() != 0 || t1.Len() != 1 || t2.Len() != 2 || t3.Len() != 2 {
		t.Fatalf("Len chain = %d,%d,%d,%d; want 0,1,2,2",
			t0.Len(), t1.Len(), t2.Len(), t3.Len())
	}
	ip := MustParseAddr("4.2.101.20")
	if _, ok := t0.Lookup(ip); ok {
		t.Error("t0 sees a later insert")
	}
	if got, _ := t1.Lookup(ip); got != "a" {
		t.Errorf("t1.Lookup = %q, want a", got)
	}
	if got, _ := t2.Lookup(ip); got != "b" {
		t.Errorf("t2.Lookup = %q, want b", got)
	}
	if got, _ := t2.Lookup(MustParseAddr("4.9.9.9")); got != "a" {
		t.Errorf("t2 /8 value = %q, want a (replacement must not leak back)", got)
	}
	if got, _ := t3.Lookup(MustParseAddr("4.9.9.9")); got != "a2" {
		t.Errorf("t3 /8 value = %q, want a2", got)
	}
}

// TestTrieInsertPersistentSharesSubtrees asserts structural sharing: a
// persistent insert on one branch must reuse the untouched sibling
// subtree by pointer, not copy it.
func TestTrieInsertPersistentSharesSubtrees(t *testing.T) {
	base := NewPrefixTrie[int]()
	// 128.0.0.0/1 lives entirely under root.child[1].
	base = base.InsertPersistent(MustParsePrefix("128.0.0.0/1"), 1)
	next := base.InsertPersistent(MustParsePrefix("10.0.0.0/8"), 2) // under child[0]
	if base.root4.child[1] != next.root4.child[1] {
		t.Error("untouched subtree was copied instead of shared")
	}
	if base.root4 == next.root4 {
		t.Error("root must be copied, not shared")
	}
}

// TestTrieInsertPersistentMatchesMutable replays a random dual-stack
// insert sequence through both insert paths and requires identical
// lookup behavior.
func TestTrieInsertPersistentMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mut := NewPrefixTrie[int]()
	per := NewPrefixTrie[int]()
	for i := 0; i < 200; i++ {
		p := randomTriePrefix(rng)
		mut.Insert(p, i)
		per = per.InsertPersistent(p, i)
	}
	if mut.Len() != per.Len() {
		t.Fatalf("Len: mutable %d, persistent %d", mut.Len(), per.Len())
	}
	for i := 0; i < 500; i++ {
		ip := randomTrieAddr(rng)
		gm, okm := mut.Lookup(ip)
		gp, okp := per.Lookup(ip)
		if gm != gp || okm != okp {
			t.Fatalf("Lookup(%v): mutable %d,%v persistent %d,%v", ip, gm, okm, gp, okp)
		}
	}
}

func TestTrieInsertLookupProperty(t *testing.T) {
	f := func(addr uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw%32) + 1
		tr := NewPrefixTrie[uint32]()
		p := PrefixFrom4(IPv4(addr), bits)
		tr.Insert(p, addr)
		got, ok := tr.Lookup(p.Addr())
		got2, ok2 := tr.Lookup(p.Last())
		return ok && ok2 && got == addr && got2 == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Same property over the v6 plane: first/last of any inserted prefix
	// must look up to its value.
	f6 := func(raw [16]byte, bitsRaw uint8) bool {
		bits := int(bitsRaw%128) + 1
		tr := NewPrefixTrie[byte]()
		p := MustPrefix(AddrFrom16(raw), bits)
		tr.Insert(p, raw[15])
		got, ok := tr.Lookup(p.Addr())
		got2, ok2 := tr.Lookup(p.Last())
		return ok && ok2 && got == raw[15] && got2 == raw[15]
	}
	if err := quick.Check(f6, nil); err != nil {
		t.Error(err)
	}
}
