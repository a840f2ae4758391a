// Package bgp implements the BGP-based validation of the InFilter
// hypothesis (paper §3.2): a "show ip bgp" text parser for
// Routeviews-style RIB dumps, the derivation of the peer-AS → source-AS
// mapping for a target network (honoring longest-prefix specificity), and
// a 30-day simulation reproducing Figure 5's source-AS-set change rates.
package bgp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"infilter/internal/netaddr"
)

// Entry is one RIB line: a network prefix, its next hop, and the AS path
// (last element is the origin AS of the target network).
type Entry struct {
	Network netaddr.Prefix
	NextHop netaddr.Addr
	Path    []uint16
	Best    bool
}

// PeerAS returns the AS adjacent to the origin — the last AS-level hop
// traffic on this path uses to enter the target network. Single-AS paths
// mean the collector's neighbor peers directly with the target.
func (e Entry) PeerAS() (uint16, bool) {
	switch len(e.Path) {
	case 0:
		return 0, false
	case 1:
		return e.Path[0], true
	default:
		return e.Path[len(e.Path)-2], true
	}
}

// SourceASes returns the ASes upstream of the peer on this path.
func (e Entry) SourceASes() []uint16 {
	if len(e.Path) < 3 {
		return nil
	}
	out := make([]uint16, len(e.Path)-2)
	copy(out, e.Path[:len(e.Path)-2])
	return out
}

// ParseShowIPBGP parses Routeviews "show ip bgp" output lines of the form
//
//   - 4.0.0.0          141.142.12.1  1224 38 10514 3356 1 i
//     *> 4.2.101.0/24     202.249.2.86  7500 2497 1 i
//
// Prefixes without an explicit mask get their classful default. Lines not
// starting with '*' are skipped. A bare-prefix continuation (the dump
// omits the network on subsequent paths for the same prefix) inherits the
// previous network.
func ParseShowIPBGP(r io.Reader) ([]Entry, error) {
	var (
		out  []Entry
		last netaddr.Prefix
		ln   int
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "*") {
			continue
		}
		best := strings.HasPrefix(line, "*>")
		line = strings.TrimLeft(line, "*> ")
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bgp: line %d: too few fields", ln)
		}
		var (
			network netaddr.Prefix
			rest    []string
			err     error
		)
		// A network line carries both the prefix and the next hop (two
		// consecutive address-like fields, or an explicit /len); a
		// continuation line starts directly with the next hop.
		explicitMask := strings.ContainsRune(fields[0], '/')
		_, e0 := netaddr.ParseIPv4(fields[0])
		_, e1 := netaddr.ParseIPv4(fields[1])
		if explicitMask || (e0 == nil && e1 == nil) {
			network, err = parsePrefixClassful(fields[0])
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: %w", ln, err)
			}
			rest = fields[1:]
			last = network
		} else {
			if last.IsZero() {
				return nil, fmt.Errorf("bgp: line %d: continuation with no prior network", ln)
			}
			network = last
			rest = fields
		}
		if len(rest) < 1 {
			return nil, fmt.Errorf("bgp: line %d: missing next hop", ln)
		}
		nextHop, err := netaddr.ParseAddr(rest[0])
		if err != nil {
			return nil, fmt.Errorf("bgp: line %d: next hop: %w", ln, err)
		}
		var path []uint16
		for _, f := range rest[1:] {
			if f == "i" || f == "e" || f == "?" || f == "I" {
				break // origin code terminates the path
			}
			v, err := strconv.ParseUint(f, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: AS %q: %w", ln, f, err)
			}
			path = append(path, uint16(v))
		}
		out = append(out, Entry{Network: network, NextHop: nextHop, Path: path, Best: best})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bgp: read: %w", err)
	}
	return out, nil
}

// parsePrefixClassful parses "a.b.c.d/len" or a bare classful network.
func parsePrefixClassful(s string) (netaddr.Prefix, error) {
	if strings.ContainsRune(s, '/') {
		return netaddr.ParsePrefix(s)
	}
	ip, err := netaddr.ParseIPv4(s)
	if err != nil {
		return netaddr.Prefix{}, err
	}
	first, _, _, _ := ip.Octets()
	bits := 24
	switch {
	case first < 128:
		bits = 8
	case first < 192:
		bits = 16
	}
	return netaddr.NewPrefix(ip.Addr(), bits)
}

// Mapping is the peer-AS → source-AS-set mapping for one target.
type Mapping map[uint16][]uint16

// DeriveMapping computes, from RIB entries, which peer AS each source AS
// uses to reach the target address — the §3.2 construction. A source AS
// appearing on paths for several prefixes covering the target follows the
// most specific prefix (the paper's 4.2.101.0/24 vs 4.0.0.0/8 case).
func DeriveMapping(entries []Entry, target netaddr.Addr) Mapping {
	type choice struct {
		peer uint16
		bits int
	}
	chosen := make(map[uint16]choice)
	for _, e := range entries {
		if !e.Network.Contains(target) {
			continue
		}
		peer, ok := e.PeerAS()
		if !ok {
			continue
		}
		for _, src := range e.SourceASes() {
			c, seen := chosen[src]
			if !seen || e.Network.Bits() > c.bits {
				chosen[src] = choice{peer: peer, bits: e.Network.Bits()}
			}
		}
	}
	m := make(Mapping)
	for src, c := range chosen {
		m[c.peer] = append(m[c.peer], src)
	}
	for peer := range m {
		sort.Slice(m[peer], func(i, j int) bool { return m[peer][i] < m[peer][j] })
	}
	return m
}

// Peers returns the mapping's peer ASes in ascending order.
func (m Mapping) Peers() []uint16 {
	out := make([]uint16, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SourcePeer inverts the mapping: source AS → peer AS.
func (m Mapping) SourcePeer() map[uint16]uint16 {
	out := make(map[uint16]uint16)
	for peer, srcs := range m {
		for _, s := range srcs {
			out[s] = peer
		}
	}
	return out
}

// FractionChanged computes the fraction of source ASes whose peer mapping
// differs between two mappings, over the union of sources.
func FractionChanged(a, b Mapping) float64 {
	pa, pb := a.SourcePeer(), b.SourcePeer()
	union := make(map[uint16]struct{}, len(pa)+len(pb))
	for s := range pa {
		union[s] = struct{}{}
	}
	for s := range pb {
		union[s] = struct{}{}
	}
	if len(union) == 0 {
		return 0
	}
	changed := 0
	for s := range union {
		va, oka := pa[s]
		vb, okb := pb[s]
		if !oka || !okb || va != vb {
			changed++
		}
	}
	return float64(changed) / float64(len(union))
}
