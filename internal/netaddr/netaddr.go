// Package netaddr provides the compact address and prefix types used
// throughout InFilter. The core model is address-family-generic: Addr is a
// family tag plus a 16-byte value (v4 stored 4-in-6) and Prefix masks up
// to /128, so every layer — flow keys, EIA tries, the BGP RIB — handles
// IPv4 and IPv6 through one type. The IPv4 (host-order uint32) type
// remains for v4-only wire formats and generators where 32-bit prefix
// arithmetic is the natural shape; IPv4.Addr() widens it losslessly.
// Address text is parsed and printed by net/netip, converted at the
// edge, so the values themselves stay pointer-free.
package netaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host byte order.
type IPv4 uint32

// Errors returned by the parsers in this package.
var (
	ErrBadAddress = errors.New("netaddr: malformed IP address")
	ErrBadPrefix  = errors.New("netaddr: malformed IP prefix")
)

// FromOctets builds an address from its four dotted-quad octets.
func FromOctets(a, b, c, d byte) IPv4 {
	return IPv4(a)<<24 | IPv4(b)<<16 | IPv4(c)<<8 | IPv4(d)
}

// Octets returns the four dotted-quad octets of ip.
func (ip IPv4) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

// String renders the address in dotted-quad form.
func (ip IPv4) String() string { return ip.Addr().String() }

// ParseIPv4 parses a dotted-quad IPv4 address with ParseAddr's
// grammar. 4-in-6 text (::ffff:a.b.c.d) is v6 and is rejected.
func ParseIPv4(s string) (IPv4, error) {
	a, err := ParseAddr(s)
	if err != nil {
		return 0, err
	}
	if !a.Is4() {
		return 0, fmt.Errorf("%w: %q is not IPv4", ErrBadAddress, s)
	}
	return IPv4(uint32(a.lo)), nil
}

// Prefix is a CIDR prefix of either family, masking up to /32 (v4) or
// /128 (v6). The address bits below the mask are kept zero by the
// constructors so two equal prefixes compare equal with ==. The zero
// Prefix is invalid (IsZero reports true) and belongs to no family.
type Prefix struct {
	addr Addr
	bits uint8
}

// NewPrefix builds a prefix from an address and a mask length, zeroing
// host bits. bits must be in [0, addr.BitLen()].
func NewPrefix(addr Addr, bits int) (Prefix, error) {
	if !addr.IsValid() || bits < 0 || bits > addr.BitLen() {
		return Prefix{}, fmt.Errorf("%w: /%d (%s)", ErrBadPrefix, bits, addr.fam)
	}
	return Prefix{addr: addr.masked(bits), bits: uint8(bits)}, nil
}

// MustPrefix is NewPrefix that panics on error.
func MustPrefix(addr Addr, bits int) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// PrefixFrom4 builds a v4 prefix from a compact IPv4 address; it is
// MustPrefix(ip.Addr(), bits) for the v4 generators and wire decoders.
func PrefixFrom4(ip IPv4, bits int) Prefix {
	return MustPrefix(ip.Addr(), bits)
}

// ParsePrefix parses "addr/len" CIDR notation of either family.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > addr.BitLen() {
		return Prefix{}, fmt.Errorf("%w: %q", ErrBadPrefix, s)
	}
	return NewPrefix(addr, bits)
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) IPv4 {
	if bits == 0 {
		return 0
	}
	return IPv4(^uint32(0) << (32 - uint(bits)))
}

// Addr returns the (masked) network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return p.addr.fam }

// Contains reports whether a falls inside p. Addresses of a different
// family are never contained.
func (p Prefix) Contains(a Addr) bool {
	return a.fam == p.addr.fam && a.masked(int(p.bits)) == p.addr
}

// Last returns the highest address in p.
func (p Prefix) Last() Addr {
	a := p.addr
	switch a.fam {
	case FamilyV4:
		a.lo |= uint64(^uint32(maskFor(int(p.bits))))
	case FamilyV6:
		bits := int(p.bits)
		switch {
		case bits < 64:
			a.hi |= ^(^uint64(0) << (64 - uint(bits)))
			a.lo = ^uint64(0)
		case bits == 64:
			a.lo = ^uint64(0)
		case bits < 128:
			a.lo |= ^(^uint64(0) << (128 - uint(bits)))
		}
	}
	return a
}

// Size returns the number of addresses covered by p, saturating at
// MaxUint64 for v6 prefixes wider than /64.
func (p Prefix) Size() uint64 {
	host := p.addr.BitLen() - int(p.bits)
	if host >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(host)
}

// Nth returns the i-th address inside p. It panics if i is out of range,
// which indicates a programming error in the caller.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.Size() {
		panic(fmt.Sprintf("netaddr: Nth(%d) out of range for %v", i, p))
	}
	return p.addr.addOffset(i)
}

// String renders p in CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// IsZero reports whether p is the zero (invalid) Prefix. Real prefixes
// of either family — including 0.0.0.0/0 and ::/0 — are not zero.
func (p Prefix) IsZero() bool { return !p.addr.IsValid() }
