package netaddr

import (
	"net/netip"
	"testing"
)

func TestParseAddrV6(t *testing.T) {
	tests := []struct {
		in      string
		want    string // canonical String(), "" means wantErr
		wantErr bool
	}{
		{in: "::", want: "::"},
		{in: "::1", want: "::1"},
		{in: "2001:db8::1", want: "2001:db8::1"},
		{in: "2001:0db8:0000:0000:0000:0000:0000:0001", want: "2001:db8::1"},
		{in: "fe80::", want: "fe80::"},
		{in: "2001:DB8::A", want: "2001:db8::a"},
		{in: "1:2:3:4:5:6:7:8", want: "1:2:3:4:5:6:7:8"},
		{in: "::ffff:192.0.2.1", want: "::ffff:192.0.2.1"}, // 4-in-6 stays v6
		{in: "::ffff:1.2.3.4", want: "::ffff:1.2.3.4"},
		{in: "64:ff9b::198.51.100.7", want: "64:ff9b::c633:6407"},
		{in: "1:0:0:2:0:0:0:3", want: "1:0:0:2::3"},      // rightmost longer run wins
		{in: "1:0:0:2:0:0:3:4", want: "1::2:0:0:3:4"},    // leftmost on tie
		{in: "0:0:1:0:0:0:0:2", want: "0:0:1::2"},        // run of 4 beats run of 2
		{in: "1:2:3:4:5:6:7:0", want: "1:2:3:4:5:6:7:0"}, // single zero group not compressed
		{in: ":", wantErr: true},
		{in: ":::", wantErr: true},
		{in: "1::2::3", wantErr: true},
		{in: "1:2:3:4:5:6:7:8:9", wantErr: true},
		{in: "1:2:3:4:5:6:7", wantErr: true},
		{in: "12345::", wantErr: true},
		{in: "g::", wantErr: true},
		{in: "fe80::1%eth0", wantErr: true},    // zones rejected
		{in: "::ffff:01.2.3.4", wantErr: true}, // leading zero in the v4 tail
		{in: "1:2:3:4:5:6:7:8::", wantErr: true},
		{in: "::1.2.3.4.5", wantErr: true},
		{in: "1:2:3:4:5:6:7:1.2.3.4", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseAddr(%q): want error, got %v", tt.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", tt.in, err)
			continue
		}
		if got.String() != tt.want {
			t.Errorf("ParseAddr(%q).String() = %q, want %q", tt.in, got.String(), tt.want)
		}
		if !got.Is6() {
			t.Errorf("ParseAddr(%q).Is6() = false", tt.in)
		}
	}
}

func TestParseAddrV4(t *testing.T) {
	a, err := ParseAddr("192.0.2.33")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Is4() || a.Is6() {
		t.Errorf("family = %v, want v4", a.Family())
	}
	if a.String() != "192.0.2.33" {
		t.Errorf("String() = %q", a.String())
	}
	v4, ok := a.V4()
	if !ok || v4 != FromOctets(192, 0, 2, 33) {
		t.Errorf("V4() = %v, %v", v4, ok)
	}
	// Leading zeros read as octal in some parsers, so netip's grammar
	// (and ours) rejects them; zones are rejected in either family.
	for _, in := range []string{"012.3.4.5", "1.2.3.04", "1.2.3.4%eth0"} {
		if got, err := ParseAddr(in); err == nil {
			t.Errorf("ParseAddr(%q): want error, got %v", in, got)
		}
	}
}

func TestAddrMatchesNetip(t *testing.T) {
	// Canonical formatting must agree with net/netip on every input both
	// parsers accept.
	for _, s := range []string{
		"::", "::1", "2001:db8::1", "fe80::dead:beef", "::ffff:10.1.2.3",
		"1:0:0:2:0:0:0:3", "ff02::fb", "2001:db8:0:1:1:1:1:1",
		"0.0.0.0", "255.255.255.255", "10.20.30.40",
	} {
		mine, err := ParseAddr(s)
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", s, err)
			continue
		}
		theirs, err := netip.ParseAddr(s)
		if err != nil {
			t.Errorf("netip.ParseAddr(%q): %v", s, err)
			continue
		}
		if mine.String() != theirs.String() {
			t.Errorf("String(%q): mine %q, netip %q", s, mine.String(), theirs.String())
		}
	}
}

func TestAddrIs4In6(t *testing.T) {
	a := MustParseAddr("::ffff:192.0.2.1")
	if !a.Is4In6() || !a.Is6() || a.Is4() {
		t.Errorf("::ffff:192.0.2.1 family flags wrong: %+v", a)
	}
	u := a.Unmap()
	if !u.Is4() {
		t.Error("Unmap did not fold to v4")
	}
	if u != MustParseAddr("192.0.2.1") {
		t.Errorf("Unmap = %v", u)
	}
	// Unmap of a plain v6 address is a no-op.
	b := MustParseAddr("2001:db8::1")
	if b.Unmap() != b {
		t.Error("Unmap changed a non-4-in-6 address")
	}
}

func TestAddrAs16RoundTrip(t *testing.T) {
	a := MustParseAddr("2001:db8::dead:beef")
	if AddrFrom16(a.As16()) != a {
		t.Error("As16/AddrFrom16 round trip failed")
	}
	// v4 maps 4-in-6 through As16 and comes back as 4-in-6 (FamilyV6).
	v4 := MustParseAddr("10.0.0.1")
	back := AddrFrom16(v4.As16())
	if !back.Is4In6() {
		t.Errorf("v4 through As16 = %v, want 4-in-6", back)
	}
	if back.Unmap() != v4 {
		t.Error("v4 As16 round trip lost the address")
	}
}

func TestAddrCompare(t *testing.T) {
	ordered := []Addr{
		{}, // invalid first
		MustParseAddr("0.0.0.0"),
		MustParseAddr("9.9.9.9"),
		MustParseAddr("255.255.255.255"),
		MustParseAddr("::"),
		MustParseAddr("::1"),
		MustParseAddr("2001:db8::1"),
		MustParseAddr("ffff::"),
	}
	for i := range ordered {
		for j := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := ordered[i].Compare(ordered[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestPrefixV6(t *testing.T) {
	p := MustParsePrefix("2001:db8::/32")
	if p.Bits() != 32 || p.Family() != FamilyV6 {
		t.Fatalf("parsed %v bits=%d fam=%v", p, p.Bits(), p.Family())
	}
	if !p.Contains(MustParseAddr("2001:db8:ffff::1")) {
		t.Error("Contains inside /32 = false")
	}
	if p.Contains(MustParseAddr("2001:db9::1")) {
		t.Error("Contains outside /32 = true")
	}
	// Family mismatch is never contained, even for 4-in-6 overlap ranges.
	if MustParsePrefix("::/0").Contains(MustParseAddr("1.2.3.4")) {
		t.Error("::/0 contains a v4 address")
	}
	if MustParsePrefix("0.0.0.0/0").Contains(MustParseAddr("::1")) {
		t.Error("0.0.0.0/0 contains a v6 address")
	}
	if got := p.Last(); got != MustParseAddr("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff") {
		t.Errorf("Last() = %v", got)
	}
	if got := p.Addr(); got != MustParseAddr("2001:db8::") {
		t.Errorf("Addr() = %v", got)
	}
}

func TestPrefixV6Boundaries(t *testing.T) {
	// Mask lengths straddling the hi/lo word boundary.
	for _, tt := range []struct{ in, last string }{
		{"8000::/1", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
		{"2001:db8::/63", "2001:db8:0:1:ffff:ffff:ffff:ffff"},
		{"2001:db8::/64", "2001:db8::ffff:ffff:ffff:ffff"},
		{"2001:db8::/65", "2001:db8::7fff:ffff:ffff:ffff"},
		{"2001:db8::1/128", "2001:db8::1"},
		{"::/0", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"},
	} {
		p := MustParsePrefix(tt.in)
		if got := p.Last(); got != MustParseAddr(tt.last) {
			t.Errorf("%s Last() = %v, want %s", tt.in, got, tt.last)
		}
		if !p.Contains(p.Last()) || !p.Contains(p.Addr()) {
			t.Errorf("%s does not contain its own bounds", tt.in)
		}
	}
}

func TestPrefixV6SizeNth(t *testing.T) {
	p := MustParsePrefix("2001:db8::/120")
	if p.Size() != 256 {
		t.Errorf("Size() = %d, want 256", p.Size())
	}
	if got := p.Nth(255); got != MustParseAddr("2001:db8::ff") {
		t.Errorf("Nth(255) = %v", got)
	}
	// Wider than /64 host space saturates.
	if MustParsePrefix("2001:db8::/32").Size() != ^uint64(0) {
		t.Error("v6 /32 Size did not saturate")
	}
	// Offsets land in the low word without touching the network bits.
	q := MustParsePrefix("2001:db8:0:ff::/64")
	if got := q.Nth(0x1_0000); got != MustParseAddr("2001:db8:0:ff::1:0") {
		t.Errorf("Nth(0x10000) = %v", got)
	}
}

func TestAddrZeroValue(t *testing.T) {
	var a Addr
	if a.IsValid() || a.Is4() || a.Is6() {
		t.Error("zero Addr claims validity")
	}
	if a.String() != "invalid" {
		t.Errorf("zero Addr String() = %q", a.String())
	}
	if a.BitLen() != 0 {
		t.Errorf("zero Addr BitLen() = %d", a.BitLen())
	}
	var p Prefix
	if !p.IsZero() {
		t.Error("zero Prefix not IsZero")
	}
	if MustParsePrefix("0.0.0.0/0").IsZero() || MustParsePrefix("::/0").IsZero() {
		t.Error("default routes must not be IsZero")
	}
}

func TestTrieV6(t *testing.T) {
	tr := NewPrefixTrie[string]()
	tr.Insert(MustParsePrefix("2001:db8::/32"), "doc")
	tr.Insert(MustParsePrefix("2001:db8:1::/48"), "doc-1")
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "ten")
	tr.Insert(MustParsePrefix("::/0"), "default6")

	if got, _ := tr.Lookup(MustParseAddr("2001:db8:1::5")); got != "doc-1" {
		t.Errorf("Lookup v6 LPM = %q, want doc-1", got)
	}
	if got, _ := tr.Lookup(MustParseAddr("2001:db8:2::5")); got != "doc" {
		t.Errorf("Lookup v6 /32 = %q, want doc", got)
	}
	if got, _ := tr.Lookup(MustParseAddr("fe80::1")); got != "default6" {
		t.Errorf("Lookup v6 default = %q, want default6", got)
	}
	// Families never cross: a v4 address must not match ::/0, and
	// a 4-in-6 v6 address must not match the v4 subtree.
	if got, ok := tr.Lookup(MustParseAddr("10.1.2.3")); !ok || got != "ten" {
		t.Errorf("Lookup v4 = %q, %v", got, ok)
	}
	if got, _ := tr.Lookup(MustParseAddr("::ffff:10.1.2.3")); got != "default6" {
		t.Errorf("Lookup 4-in-6 = %q, want default6 (no family crossing)", got)
	}
	if _, ok := tr.Lookup(Addr{}); ok {
		t.Error("Lookup of zero Addr matched")
	}
}

func TestTrieV6WalkOrder(t *testing.T) {
	tr := NewPrefixTrie[int]()
	ins := []string{"2001:db8::/32", "10.0.0.0/8", "::/0", "2001:db8::/48", "192.0.2.0/24"}
	for i, s := range ins {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []string
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"10.0.0.0/8", "192.0.2.0/24", "::/0", "2001:db8::/32", "2001:db8::/48"}
	if len(got) != len(want) {
		t.Fatalf("Walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk order %v, want %v", got, want)
		}
	}
}

func TestTrieV6InsertPersistentSharesFamilies(t *testing.T) {
	base := NewPrefixTrie[int]()
	base = base.InsertPersistent(MustParsePrefix("10.0.0.0/8"), 1)
	base = base.InsertPersistent(MustParsePrefix("2001:db8::/32"), 2)
	// A v6 insert must share the entire v4 root by pointer, and vice versa.
	next := base.InsertPersistent(MustParsePrefix("2001:db8:1::/48"), 3)
	if base.root4 != next.root4 {
		t.Error("v6 insert copied the v4 subtree")
	}
	if base.root6 == next.root6 {
		t.Error("v6 insert did not produce a new v6 root")
	}
	next4 := base.InsertPersistent(MustParsePrefix("10.1.0.0/16"), 4)
	if base.root6 != next4.root6 {
		t.Error("v4 insert copied the v6 subtree")
	}
	// Old snapshot unchanged.
	if _, ok := base.Lookup(MustParseAddr("2001:db8:1::1")); ok {
		if v, _ := base.Lookup(MustParseAddr("2001:db8:1::1")); v != 2 {
			t.Errorf("base v6 lookup = %d, want 2", v)
		}
	}
}

func TestTrieInsertZeroPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert of zero Prefix did not panic")
		}
	}()
	NewPrefixTrie[int]().Insert(Prefix{}, 0)
}
