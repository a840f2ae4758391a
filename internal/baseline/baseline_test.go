package baseline

import (
	"testing"

	"infilter/internal/netaddr"
)

func TestURPFSymmetricRoutingPasses(t *testing.T) {
	u := NewURPF()
	u.AddRoute(netaddr.MustParsePrefix("61.0.0.0/11"), 1)
	u.AddRoute(netaddr.MustParsePrefix("70.0.0.0/11"), 2)
	if n := u.routes.Len(); n != 2 {
		t.Fatalf("routes = %d", n)
	}
	if !u.Check(netaddr.MustParseAddr("61.1.2.3"), 1) {
		t.Error("symmetric source failed uRPF")
	}
	if u.Check(netaddr.MustParseAddr("61.1.2.3"), 2) {
		t.Error("spoofed/asymmetric source passed uRPF")
	}
	if u.Check(netaddr.MustParseAddr("99.1.2.3"), 1) {
		t.Error("unrouted source passed uRPF")
	}
}

// TestURPFAsymmetryFalsePositive documents the failure mode InFilter
// avoids: legitimate traffic arriving on a different interface than the
// best route back (asymmetric inter-domain routing) is dropped by uRPF.
func TestURPFAsymmetryFalsePositive(t *testing.T) {
	u := NewURPF()
	u.AddRoute(netaddr.MustParsePrefix("61.0.0.0/11"), 1)
	// Legit traffic from 61/11 actually enters via interface 3 because the
	// neighbor's policy differs from our best path.
	if u.Check(netaddr.MustParseAddr("61.5.5.5"), 3) {
		t.Fatal("expected uRPF to (wrongly) reject the asymmetric flow")
	}
}

func TestURPFLongestPrefix(t *testing.T) {
	u := NewURPF()
	u.AddRoute(netaddr.MustParsePrefix("4.0.0.0/8"), 1)
	u.AddRoute(netaddr.MustParsePrefix("4.2.101.0/24"), 2)
	if !u.Check(netaddr.MustParseAddr("4.2.101.20"), 2) {
		t.Error("more-specific route not honored")
	}
	if u.Check(netaddr.MustParseAddr("4.2.101.20"), 1) {
		t.Error("covering route won over more-specific")
	}
}

func TestHIFAdmitsEverythingWhenNotOverloaded(t *testing.T) {
	h := NewHIF()
	if !h.Admit(netaddr.MustParseAddr("1.2.3.4")) {
		t.Error("not-overloaded HIF rejected a flow")
	}
	if h.overloaded {
		t.Error("fresh HIF overloaded")
	}
}

func TestHIFFiltersUnderOverload(t *testing.T) {
	h := NewHIF()
	known := netaddr.MustParseAddr("61.1.1.1")
	h.Learn(known)
	h.Learn(known) // idempotent
	if n := len(h.history); n != 1 {
		t.Errorf("history holds %d sources", n)
	}
	h.SetOverloaded(true)
	if !h.Admit(known) {
		t.Error("known source rejected under overload")
	}
	if h.Admit(netaddr.MustParseAddr("99.9.9.9")) {
		t.Error("unknown source admitted under overload")
	}
	h.SetOverloaded(false)
	if !h.Admit(netaddr.MustParseAddr("99.9.9.9")) {
		t.Error("unknown source rejected after overload cleared")
	}
}

// TestHIFBlindToStealthySpoofing documents the gap InFilter fills: a
// stealthy attack never triggers overload, so HIF admits its spoofed
// packets; and a spoofed address that appeared anywhere before passes even
// under overload.
func TestHIFBlindToStealthySpoofing(t *testing.T) {
	h := NewHIF()
	spoofed := netaddr.MustParseAddr("70.9.9.9")
	h.Learn(spoofed) // the real owner's traffic was seen once
	// Stealthy attack: no overload — everything admitted.
	if !h.Admit(spoofed) {
		t.Error("stealthy spoofed packet rejected without overload")
	}
	// Even under overload, the historically-seen spoofed address passes.
	h.SetOverloaded(true)
	if !h.Admit(spoofed) {
		t.Error("historically-seen spoofed source rejected")
	}
}
