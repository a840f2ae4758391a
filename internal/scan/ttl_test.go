package scan

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infilter/internal/netaddr"
)

func ttlProfile(tol int) *TTLProfile {
	return NewTTLProfile(TTLConfig{Tolerance: tol})
}

func TestTTLProfileLearnsThenFlags(t *testing.T) {
	p := ttlProfile(3)
	src := netaddr.MustParseAddr("61.1.1.9")
	// Learning phase: consistent TTLs never flag.
	for i := 0; i < DefaultTTLMinSamples; i++ {
		if p.Observe(src, 57) {
			t.Fatalf("flagged during learning at sample %d", i)
		}
	}
	// Within tolerance: clean, and folds into the profile.
	if p.Observe(src, 59) {
		t.Error("TTL within tolerance flagged")
	}
	// Beyond tolerance either way: spoof verdict.
	if !p.Observe(src, 64) {
		t.Error("TTL 64 vs learned 59 (tolerance 3) not flagged")
	}
	if !p.Observe(src, 48) {
		t.Error("TTL 48 vs learned 59 not flagged")
	}
	// A deviating burst must not have dragged the expectation.
	if exp, _, ok := p.Expected(src); !ok || exp != 59 {
		t.Errorf("expected TTL %d after spoof burst, want 59", exp)
	}
}

func TestTTLProfileAggregatesByPrefix(t *testing.T) {
	p := ttlProfile(2)
	// Two hosts in one /24 share a profile.
	a := netaddr.MustParseAddr("203.0.113.10")
	b := netaddr.MustParseAddr("203.0.113.200")
	for i := 0; i < 4; i++ {
		p.Observe(a, 60)
	}
	if !p.Observe(b, 40) {
		t.Error("sibling host in learned /24 not judged against the prefix profile")
	}
	if p.Sources() != 1 {
		t.Errorf("Sources = %d, want 1 aggregate", p.Sources())
	}
}

func TestTTLProfileSkipsZeroTTLAndNil(t *testing.T) {
	p := ttlProfile(1)
	src := netaddr.MustParseAddr("61.1.1.9")
	for i := 0; i < 10; i++ {
		p.Observe(src, 60)
	}
	if p.Observe(src, 0) {
		t.Error("zero TTL (no information) flagged")
	}
	var nilP *TTLProfile
	if nilP.Observe(src, 7) {
		t.Error("nil profile flagged")
	}
	if NewTTLProfile(TTLConfig{}) != nil {
		t.Error("disabled config built a profile")
	}
}

func TestTTLProfileSourceCap(t *testing.T) {
	p := NewTTLProfile(TTLConfig{Tolerance: 2, MaxSources: 3, PrefixLen4: 32})
	for i := 0; i < 10; i++ {
		src := netaddr.AddrFrom4(10, 0, 0, byte(i+1))
		p.Observe(src, 60)
	}
	if p.Sources() != 3 {
		t.Errorf("Sources = %d, want cap 3", p.Sources())
	}
	// Uncapped sources pass unjudged rather than evicting learned state.
	if p.Observe(netaddr.AddrFrom4(10, 0, 0, 9), 5) {
		t.Error("over-cap source was judged")
	}
}

func TestTTLCheckpointRoundTrip(t *testing.T) {
	p := NewTTLProfile(TTLConfig{Tolerance: 3})
	srcs := []string{"61.1.1.9", "203.0.113.77", "2001:db8:77::1"}
	for _, s := range srcs {
		for i := 0; i < 5; i++ {
			p.Observe(netaddr.MustParseAddr(s), 55)
		}
	}
	var buf bytes.Buffer
	if err := p.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# infilter-ttl-checkpoint v1\n") {
		t.Fatalf("missing versioned header: %q", buf.String()[:40])
	}

	q := NewTTLProfile(TTLConfig{Tolerance: 3})
	if err := ReadCheckpointInto(q, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if q.Sources() != p.Sources() {
		t.Fatalf("Sources: got %d want %d", q.Sources(), p.Sources())
	}
	for _, s := range srcs {
		addr := netaddr.MustParseAddr(s)
		gotTTL, gotN, ok := q.Expected(addr)
		wantTTL, wantN, _ := p.Expected(addr)
		if !ok || gotTTL != wantTTL || gotN != wantN {
			t.Errorf("%s: got (%d,%d,%v) want (%d,%d,true)", s, gotTTL, gotN, ok, wantTTL, wantN)
		}
	}
	// Restored profiles keep judging.
	if !q.Observe(netaddr.MustParseAddr("61.1.1.9"), 40) {
		t.Error("restored profile did not flag a deviating TTL")
	}

	// Deterministic serialization: equal state, equal bytes.
	var buf2 bytes.Buffer
	if err := p.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("checkpoint serialization is not deterministic")
	}
}

// TestTTLCheckpointGolden pins the bytes WriteCheckpoint emits for a
// fixed dual-stack profile: v4 /24 bases, v6 /48 bases (one with a
// single zero group left uncompressed, two whose trailing zero run is
// compressed) and a 4-in-6 source, which stays v6 and aggregates to
// ::/48. Reading the golden back must restore every profile and
// re-encode byte-identically, so a change to address printing or
// parsing shows up here as a diff, not as a cold warm-restart.
func TestTTLCheckpointGolden(t *testing.T) {
	p := NewTTLProfile(TTLConfig{Tolerance: 3})
	srcs := []struct {
		src     string
		ttl     uint8
		samples int
	}{
		{"61.1.1.9", 57, 4},
		{"203.0.113.77", 120, 3},
		{"10.0.0.1", 64, 1},
		{"2001:db8:77::1", 55, 5},
		{"2001:db8::1", 61, 2},
		{"2001:0:5:0:ffff::9", 250, 3},
		{"::ffff:192.0.2.1", 47, 6},
	}
	for _, s := range srcs {
		for i := 0; i < s.samples; i++ {
			p.Observe(netaddr.MustParseAddr(s.src), s.ttl)
		}
	}
	var got bytes.Buffer
	if err := p.WriteCheckpoint(&got); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "ttl.ckpt")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("checkpoint differs from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got.Bytes(), golden)
	}

	q := NewTTLProfile(TTLConfig{Tolerance: 3})
	if err := ReadCheckpointInto(q, bytes.NewReader(golden)); err != nil {
		t.Fatalf("ReadCheckpointInto(golden): %v", err)
	}
	for _, s := range srcs {
		addr := netaddr.MustParseAddr(s.src)
		gotTTL, gotN, ok := q.Expected(addr)
		if !ok || gotTTL != s.ttl || gotN != uint32(s.samples) {
			t.Errorf("%s: restored (%d,%d,%v), want (%d,%d,true)", s.src, gotTTL, gotN, ok, s.ttl, s.samples)
		}
	}
	var again bytes.Buffer
	if err := q.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("decode→re-encode not byte-identical:\n--- got ---\n%s--- want ---\n%s", again.Bytes(), golden)
	}
}

func TestTTLCheckpointRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a checkpoint\n",
		"# infilter-ttl-checkpoint v9\n",
		"# infilter-ttl-checkpoint v1\nbadrow\n",
		"# infilter-ttl-checkpoint v1\n1.2.3.4 999 1\n",
		"# infilter-ttl-checkpoint v1\n1.2.3.4 60 notanumber\n",
		// Rows WriteCheckpoint never writes: not a /24 (v6: /48)
		// aggregate base, a repeated row, more rows than MaxSources.
		"# infilter-ttl-checkpoint v1\n1.2.3.4 60 3\n",
		"# infilter-ttl-checkpoint v1\n2001:db8:0:1::1 60 3\n",
		"# infilter-ttl-checkpoint v1\n1.2.3.0 60 3\n1.2.3.0 61 4\n",
		"# infilter-ttl-checkpoint v1\n1.2.3.0 60 3\n1.2.4.0 60 3\n2001:db8:: 60 3\n",
	} {
		p := NewTTLProfile(TTLConfig{Tolerance: 3, MaxSources: 2})
		if err := ReadCheckpointInto(p, strings.NewReader(in)); err == nil {
			t.Errorf("input %q: no error", in)
		}
	}
}
