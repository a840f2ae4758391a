package eia

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"infilter/internal/netaddr"
)

// randomDualStackSet builds a random EIA set mixing v4 and v6 prefixes,
// with deliberate peer collisions (small peer space, small address pool)
// so merges exercise the conflict rule, not just disjoint unions.
func randomDualStackSet(rng *rand.Rand, cfg Config, n int) *Set {
	s := NewSet(cfg)
	for i := 0; i < n; i++ {
		peer := PeerAS(rng.Intn(5) + 1)
		if rng.Intn(2) == 0 {
			// Small v4 pool: addresses collide across sets often.
			addr := netaddr.IPv4(rng.Uint32() & 0x0000ffff)
			s.AddPrefix(peer, netaddr.MustPrefix(addr.Addr(), rng.Intn(25)+8))
		} else {
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			b[7] = byte(rng.Intn(4))
			b[15] = byte(rng.Intn(8))
			s.AddPrefix(peer, netaddr.MustPrefix(netaddr.AddrFrom16(b), rng.Intn(81)+48))
		}
	}
	return s
}

// checkpointBytes canonicalizes a set as its v2 checkpoint encoding; two
// sets are equal iff their encodings are byte-identical (rows are
// sorted, so the encoding is canonical).
func checkpointBytes(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a := randomDualStackSet(rng, Config{}, rng.Intn(60))
		b := randomDualStackSet(rng, Config{}, rng.Intn(60))
		ab := checkpointBytes(t, Merge(a, b))
		ba := checkpointBytes(t, Merge(b, a))
		if !bytes.Equal(ab, ba) {
			t.Fatalf("trial %d: Merge(a,b) != Merge(b,a)\n--- ab ---\n%s--- ba ---\n%s", trial, ab, ba)
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		a := randomDualStackSet(rng, Config{}, rng.Intn(40))
		b := randomDualStackSet(rng, Config{}, rng.Intn(40))
		c := randomDualStackSet(rng, Config{}, rng.Intn(40))
		left := checkpointBytes(t, Merge(Merge(a, b), c))
		right := checkpointBytes(t, Merge(a, Merge(b, c)))
		if !bytes.Equal(left, right) {
			t.Fatalf("trial %d: (a∪b)∪c != a∪(b∪c)\n--- left ---\n%s--- right ---\n%s", trial, left, right)
		}
	}
}

func TestMergeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		a := randomDualStackSet(rng, Config{}, rng.Intn(80))
		want := checkpointBytes(t, a)
		if got := checkpointBytes(t, Merge(a, a)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Merge(a,a) != a\n--- got ---\n%s--- want ---\n%s", trial, got, want)
		}
		// Re-merging an already-folded set must also be a fixpoint.
		b := randomDualStackSet(rng, Config{}, rng.Intn(80))
		ab := Merge(a, b)
		want = checkpointBytes(t, ab)
		if got := checkpointBytes(t, Merge(ab, b)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Merge(a∪b, b) != a∪b", trial)
		}
	}
}

func TestMergeLeavesInputsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomDualStackSet(rng, Config{}, 40)
	b := randomDualStackSet(rng, Config{}, 40)
	beforeA, beforeB := checkpointBytes(t, a), checkpointBytes(t, b)
	Merge(a, b)
	if !bytes.Equal(checkpointBytes(t, a), beforeA) {
		t.Error("Merge mutated its first input")
	}
	if !bytes.Equal(checkpointBytes(t, b), beforeB) {
		t.Error("Merge mutated its second input")
	}
}

func TestMergeConflictResolvesToLowestPeer(t *testing.T) {
	p4 := netaddr.MustParsePrefix("10.1.0.0/16")
	p6 := netaddr.MustParsePrefix("2001:db8::/48")

	a := NewSet(Config{})
	a.AddPrefix(3, p4)
	a.AddPrefix(2, p6)
	b := NewSet(Config{})
	b.AddPrefix(1, p4)
	b.AddPrefix(5, p6)

	for name, m := range map[string]*Set{"ab": Merge(a, b), "ba": Merge(b, a)} {
		st := NewStore(m)
		if got := st.Check(1, netaddr.MustParseAddr("10.1.2.3")); got != Match {
			t.Errorf("%s: v4 conflict not resolved to peer 1: Check(1) = %v", name, got)
		}
		if got := st.Check(2, netaddr.MustParseAddr("2001:db8::9")); got != Match {
			t.Errorf("%s: v6 conflict not resolved to peer 2: Check(2) = %v", name, got)
		}
		if got := m.Peers(); !reflect.DeepEqual(got, []PeerAS{1, 2}) {
			t.Errorf("%s: Peers = %v, want [1 2] (losing peers must count no prefixes)", name, got)
		}
		if m.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", name, m.Len())
		}
	}
}

// TestMergeGoldenCheckpointRoundTrip pins the byte-level contract of the
// replication path: merging two fixed dual-stack sets and checkpointing
// the result must produce exactly the committed v2 golden bytes, and
// decoding those bytes through the format's one reader and
// re-encoding must round-trip byte-identically. A change to the row
// codec, the sort order or the merge tie-break shows up here as a golden
// diff, not as silent cluster divergence.
func TestMergeGoldenCheckpointRoundTrip(t *testing.T) {
	a := NewSet(Config{})
	a.AddPrefix(2, netaddr.MustParsePrefix("4.0.0.0/8"))
	a.AddPrefix(3, netaddr.MustParsePrefix("10.1.0.0/16"))
	a.AddPrefix(1, netaddr.MustParsePrefix("2001:db8::/48"))
	b := NewSet(Config{})
	b.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16")) // conflict: 1 < 3 wins
	b.AddPrefix(4, netaddr.MustParsePrefix("192.0.2.0/24"))
	b.AddPrefix(4, netaddr.MustParsePrefix("2001:db8:ff::/64"))

	got := checkpointBytes(t, Merge(a, b))

	goldenPath := filepath.Join("testdata", "merge_checkpoint_v2.golden")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("merged checkpoint differs from %s:\n--- got ---\n%s--- want ---\n%s",
			goldenPath, got, golden)
	}

	decoded := NewSet(Config{})
	if err := ReadCheckpointInto(decoded, bytes.NewReader(golden)); err != nil {
		t.Fatalf("ReadCheckpointInto(golden): %v", err)
	}
	if again := checkpointBytes(t, decoded); !bytes.Equal(again, golden) {
		t.Fatalf("decode→re-encode not byte-identical:\n--- got ---\n%s--- want ---\n%s", again, golden)
	}
}

// TestDecodeCheckpointRejectsGarbage decodes a frame the way a cluster
// receiver does before merging: into a fresh untuned set.
func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if err := ReadCheckpointInto(NewSet(Config{}), strings.NewReader("not a checkpoint\n")); err == nil {
		t.Error("ReadCheckpointInto accepted a headerless stream")
	}
}

func TestStoreMergeSet(t *testing.T) {
	local := NewSet(Config{})
	local.AddPrefix(3, netaddr.MustParsePrefix("10.1.0.0/16"))
	local.AddPrefix(1, netaddr.MustParsePrefix("4.0.0.0/8"))
	st := NewStore(local)

	remote := NewSet(Config{})
	remote.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16")) // re-homes (1 < 3)
	remote.AddPrefix(2, netaddr.MustParsePrefix("4.0.0.0/8"))   // loses (1 < 2)
	remote.AddPrefix(5, netaddr.MustParsePrefix("192.0.2.0/24"))
	remote.AddPrefix(5, netaddr.MustParsePrefix("2001:db8::/48"))

	added, rehomed := st.MergeSet(remote)
	if added != 2 || rehomed != 1 {
		t.Fatalf("MergeSet = (added %d, rehomed %d), want (2, 1)", added, rehomed)
	}
	if v := st.Check(1, netaddr.MustParseAddr("10.1.2.3")); v != Match {
		t.Errorf("re-homed prefix: Check(1) = %v, want match", v)
	}
	if v := st.Check(1, netaddr.MustParseAddr("4.4.4.4")); v != Match {
		t.Errorf("conflict loser applied: Check(1, 4.4.4.4) = %v, want match", v)
	}
	if v := st.Check(5, netaddr.MustParseAddr("2001:db8::7")); v != Match {
		t.Errorf("added v6 prefix: Check(5) = %v, want match", v)
	}

	// Idempotent: folding the same snapshot again is a no-op.
	added, rehomed = st.MergeSet(remote)
	if added != 0 || rehomed != 0 {
		t.Errorf("second MergeSet = (added %d, rehomed %d), want (0, 0)", added, rehomed)
	}

	// The store's state must equal the pure Merge of the inputs.
	if got, want := checkpointBytes(t, st.Snapshot()), checkpointBytes(t, Merge(local, remote)); !bytes.Equal(got, want) {
		t.Errorf("MergeSet result differs from Merge:\n--- store ---\n%s--- merge ---\n%s", got, want)
	}

	// Property rows: over random dual-stack pairs, with and without the
	// Bloom tier, MergeSet publishes exactly Merge's bytes and reports
	// the added and re-homed rows a direct count over b finds.
	rng := rand.New(rand.NewSource(29))
	for _, bits := range []int{0, 10} {
		for trial := 0; trial < 50; trial++ {
			a := randomDualStackSet(rng, Config{BloomBitsPerEntry: bits}, rng.Intn(60))
			b := randomDualStackSet(rng, Config{}, rng.Intn(60))
			held := map[netaddr.Prefix]PeerAS{}
			a.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
				held[p] = peer
				return true
			})
			wantAdded, wantRehomed := 0, 0
			b.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
				if prev, ok := held[p]; !ok {
					wantAdded++
				} else if peer < prev {
					wantRehomed++
				}
				return true
			})

			st := NewStore(a)
			added, rehomed := st.MergeSet(b)
			if added != wantAdded || rehomed != wantRehomed {
				t.Errorf("bits=%d trial %d: MergeSet = (added %d, rehomed %d), want (%d, %d)",
					bits, trial, added, rehomed, wantAdded, wantRehomed)
			}
			if got, want := checkpointBytes(t, st.Snapshot()), checkpointBytes(t, Merge(a, b)); !bytes.Equal(got, want) {
				t.Fatalf("bits=%d trial %d: MergeSet differs from Merge:\n--- store ---\n%s--- merge ---\n%s",
					bits, trial, got, want)
			}
		}
	}
}

// TestStoreMergeSetBloomTier proves a merged snapshot keeps the Bloom
// tier consistent: post-merge checks through the tier-enabled store are
// identical to an exact tier-free store over the same state.
func TestStoreMergeSetBloomTier(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	local := randomDualStackSet(rng, Config{}, 50)
	remote := randomDualStackSet(rng, Config{}, 50)

	bloomLocal := NewSet(Config{BloomBitsPerEntry: 10})
	exactLocal := NewSet(Config{})
	local.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
		bloomLocal.AddPrefix(peer, p)
		exactLocal.AddPrefix(peer, p)
		return true
	})
	bloomed, exact := NewStore(bloomLocal), NewStore(exactLocal)
	bloomed.MergeSet(remote)
	exact.MergeSet(remote)

	for i := 0; i < 2000; i++ {
		peer := PeerAS(rng.Intn(6) + 1)
		var src netaddr.Addr
		if rng.Intn(2) == 0 {
			src = netaddr.IPv4(rng.Uint32() & 0x0003ffff).Addr()
		} else {
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			b[7] = byte(rng.Intn(4))
			b[15] = byte(rng.Intn(16))
			src = netaddr.AddrFrom16(b)
		}
		if got, want := bloomed.Check(peer, src), exact.Check(peer, src); got != want {
			t.Fatalf("check %d: bloom-tier store = %v, exact store = %v (peer %d, src %s)",
				i, got, want, peer, src)
		}
	}

	// Two prefixes for a peer AS above every peer the tier has filters
	// for: the second must reuse the filter the first created.
	newPeer := NewSet(Config{})
	newPeer.AddPrefix(9, netaddr.MustParsePrefix("11.0.0.0/8"))
	newPeer.AddPrefix(9, netaddr.MustParsePrefix("12.0.0.0/8"))
	bloomed.MergeSet(newPeer)
	for _, src := range []string{"11.1.1.1", "12.1.1.1"} {
		if got := bloomed.Check(9, netaddr.MustParseAddr(src)); got != Match {
			t.Errorf("new peer's %s: Check = %v, want match", src, got)
		}
	}
}
