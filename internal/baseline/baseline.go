// Package baseline implements the two comparison schemes the paper
// discusses in §2: Unicast Reverse Path Forwarding (uRPF), which assumes
// ingress interface == egress interface per the local routing table, and
// Peng et al.'s history-based IP filtering (HIF), which admits sources
// previously seen anywhere in the network when the edge is overloaded.
// Both exist so the evaluation can show where InFilter's per-peer
// expectation model differs.
package baseline

import (
	"infilter/internal/netaddr"
)

// URPF models a border router's unicast reverse-path-forwarding check: a
// packet passes only when the local routing table routes its source
// address back out the interface it arrived on. At boundaries between
// large networks this assumption breaks (asymmetric routing), which is why
// InFilter does not rely on it (§2).
type URPF struct {
	routes *netaddr.PrefixTrie[uint16] // prefix -> egress interface
}

// NewURPF returns an empty uRPF checker.
func NewURPF() *URPF {
	return &URPF{routes: netaddr.NewPrefixTrie[uint16]()}
}

// AddRoute installs a route: traffic to p leaves through ifIndex.
func (u *URPF) AddRoute(p netaddr.Prefix, ifIndex uint16) {
	u.routes.Insert(p, ifIndex)
}

// Check reports whether a packet with the given source arriving on
// ifIndex passes the strict uRPF test.
func (u *URPF) Check(src netaddr.Addr, ifIndex uint16) bool {
	egress, ok := u.routes.Lookup(src)
	return ok && egress == ifIndex
}

// HIF is Peng et al.'s history-based IP filtering: an edge router keeps a
// history of source addresses that previously appeared; under overload it
// admits only sources in the history. Unlike InFilter it keeps no per-peer
// mapping, so any previously-seen address passes regardless of ingress —
// and it only helps against volume attacks (the overload trigger), not
// stealthy ones.
type HIF struct {
	history    map[netaddr.Addr]struct{}
	overloaded bool
}

// NewHIF returns an empty history filter.
func NewHIF() *HIF {
	return &HIF{history: make(map[netaddr.Addr]struct{})}
}

// Learn records a source address in the history (normal operation).
func (h *HIF) Learn(src netaddr.Addr) {
	h.history[src] = struct{}{}
}

// SetOverloaded toggles the overload state; filtering applies only while
// overloaded.
func (h *HIF) SetOverloaded(v bool) { h.overloaded = v }

// Admit reports whether a packet from src is admitted: always when not
// overloaded; only if historically seen when overloaded.
func (h *HIF) Admit(src netaddr.Addr) bool {
	if !h.overloaded {
		return true
	}
	_, ok := h.history[src]
	return ok
}
