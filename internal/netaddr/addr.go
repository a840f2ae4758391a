package netaddr

import (
	"fmt"
	"net/netip"
)

// Family tags the address family of an Addr or Prefix. The zero value
// (FamilyNone) marks the invalid/zero Addr, so a zero Addr is never
// mistaken for a real address of either family.
type Family uint8

// Address families.
const (
	FamilyNone Family = 0
	FamilyV4   Family = 4
	FamilyV6   Family = 6
)

// String names the family the way metric labels spell it ("4" / "6").
func (f Family) String() string {
	switch f {
	case FamilyV4:
		return "4"
	case FamilyV6:
		return "6"
	default:
		return "none"
	}
}

// BitLen returns the family's address width in bits: 32 for v4, 128 for
// v6, 0 for FamilyNone.
func (f Family) BitLen() int {
	switch f {
	case FamilyV4:
		return 32
	case FamilyV6:
		return 128
	default:
		return 0
	}
}

// v4InV6 is the 4-in-6 marker in the low word: v4 addresses are stored
// at ::ffff:0:0/96 so the two families share one 128-bit value layout
// and the family tag alone decides rendering and key dispatch.
const v4InV6 = uint64(0xffff) << 32

// Addr is an IP address of either family: a family tag plus a 16-byte
// value held as two big-endian 64-bit words. IPv4 addresses are stored
// 4-in-6 (::ffff:a.b.c.d) with FamilyV4, so the low 32 bits of lo are
// the v4 address and every v4 fast path is a plain 32-bit extraction.
// Addr is comparable (flow keys and maps use ==) and the zero value is
// the invalid address (IsValid reports false).
type Addr struct {
	hi, lo uint64
	fam    Family
}

// AddrFrom4 builds a v4 address from its dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr{lo: v4InV6 | uint64(a)<<24 | uint64(b)<<16 | uint64(c)<<8 | uint64(d), fam: FamilyV4}
}

// AddrFrom16 builds a v6 address from its 16 raw bytes. 4-in-6 values
// stay FamilyV6 (matching net/netip's Is4In6 semantics); use Unmap to
// fold them onto FamilyV4.
func AddrFrom16(b [16]byte) Addr {
	return Addr{
		hi:  beUint64(b[0:8]),
		lo:  beUint64(b[8:16]),
		fam: FamilyV6,
	}
}

// Addr widens an IPv4 to the family-generic address type.
func (ip IPv4) Addr() Addr {
	return Addr{lo: v4InV6 | uint64(uint32(ip)), fam: FamilyV4}
}

func beUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Family returns the address family tag.
func (a Addr) Family() Family { return a.fam }

// Is4 reports whether a is an IPv4 address (FamilyV4, not 4-in-6).
func (a Addr) Is4() bool { return a.fam == FamilyV4 }

// Is6 reports whether a is an IPv6 address (including 4-in-6 values).
func (a Addr) Is6() bool { return a.fam == FamilyV6 }

// IsValid reports whether a is an address of either family (the zero
// Addr is not).
func (a Addr) IsValid() bool { return a.fam != FamilyNone }

// Is4In6 reports whether a is a v6 address inside ::ffff:0:0/96.
func (a Addr) Is4In6() bool { return a.fam == FamilyV6 && a.hi == 0 && a.lo>>32 == 0xffff }

// BitLen returns the address width in bits (32, 128, or 0 when invalid).
func (a Addr) BitLen() int { return a.fam.BitLen() }

// As16 returns the 16-byte representation (v4 mapped 4-in-6).
func (a Addr) As16() [16]byte {
	var b [16]byte
	bePutUint64(b[0:8], a.hi)
	bePutUint64(b[8:16], a.lo)
	return b
}

func bePutUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// V4 returns the compact IPv4 form of a and whether a is v4 (directly
// or 4-in-6).
func (a Addr) V4() (IPv4, bool) {
	if a.fam == FamilyV4 || a.Is4In6() {
		return IPv4(uint32(a.lo)), true
	}
	return 0, false
}

// Unmap folds a 4-in-6 address onto FamilyV4; every other address is
// returned unchanged.
func (a Addr) Unmap() Addr {
	if a.Is4In6() {
		a.fam = FamilyV4
	}
	return a
}

// Uint64Pair exposes the raw 128-bit value as two big-endian words, for
// hashing. v4 addresses carry the 4-in-6 marker in lo.
func (a Addr) Uint64Pair() (hi, lo uint64) { return a.hi, a.lo }

// Compare orders addresses: invalid first, then v4 before v6, then by
// value.
func (a Addr) Compare(b Addr) int {
	if a.fam != b.fam {
		if a.fam < b.fam {
			return -1
		}
		return 1
	}
	if a.hi != b.hi {
		if a.hi < b.hi {
			return -1
		}
		return 1
	}
	if a.lo != b.lo {
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether a orders before b (see Compare).
func (a Addr) Less(b Addr) bool { return a.Compare(b) < 0 }

// masked returns a with everything below the top `bits` bits of its
// family's address space zeroed.
func (a Addr) masked(bits int) Addr {
	switch a.fam {
	case FamilyV4:
		if bits <= 0 {
			a.lo = v4InV6
		} else if bits < 32 {
			a.lo = v4InV6 | (a.lo & (^uint64(0) << (32 - uint(bits))) & 0xffffffff)
		}
	case FamilyV6:
		switch {
		case bits <= 0:
			a.hi, a.lo = 0, 0
		case bits < 64:
			a.hi &= ^uint64(0) << (64 - uint(bits))
			a.lo = 0
		case bits == 64:
			a.lo = 0
		case bits < 128:
			a.lo &= ^uint64(0) << (128 - uint(bits))
		}
	}
	return a
}

// addOffset returns a+n within the family's address space. Callers
// (Prefix.Nth) guarantee the sum does not overflow the space.
func (a Addr) addOffset(n uint64) Addr {
	if a.fam == FamilyV4 {
		a.lo = v4InV6 | uint64(uint32(a.lo)+uint32(n))
		return a
	}
	lo := a.lo + n
	if lo < a.lo {
		a.hi++
	}
	a.lo = lo
	return a
}

// String renders the address through net/netip: dotted quad for v4,
// RFC 5952 form for v6 (lowercase hex, longest zero run compressed,
// 4-in-6 as ::ffff:a.b.c.d). The zero Addr prints "invalid".
func (a Addr) String() string {
	if !a.IsValid() {
		return "invalid"
	}
	ip := netip.AddrFrom16(a.As16())
	if a.fam == FamilyV4 {
		ip = ip.Unmap()
	}
	return ip.String()
}

// ParseAddr parses an address of either family with net/netip's
// grammar: dotted-quad v4 without leading zeros (they read as octal
// elsewhere), or any RFC 4291 v6 text form. Zoned addresses ("%zone")
// are rejected — flow records carry no scope. A 4-in-6 input stays
// FamilyV6; Unmap folds it.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil || ip.Zone() != "" {
		return Addr{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	if ip.Is4() {
		b := ip.As4()
		return AddrFrom4(b[0], b[1], b[2], b[3]), nil
	}
	return AddrFrom16(ip.As16()), nil
}

// MustParseAddr is ParseAddr that panics on error. For tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}
