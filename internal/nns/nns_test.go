package nns

import (
	"math/rand"
	"testing"
	"testing/quick"

	"infilter/internal/flow"
)

func TestEncoderUnaryWorkedExample(t *testing.T) {
	// Paper §4.2 example spirit: a value at 3/4 of its range gets 3 of 4
	// ones. Our encoder fixes dC = d/5, so emulate with a d=20 encoder
	// (dC=4 bits per characteristic).
	e, err := NewEncoder(20, [flow.NumStats]StatRange{
		{Min: 0, Max: 4}, {Min: 0, Max: 8}, {Min: 0, Max: 4}, {Min: 0, Max: 4}, {Min: 0, Max: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Level(0, 3); got != 3 {
		t.Errorf("Level(0,3) = %d, want 3", got)
	}
	if got := e.Level(1, 6); got != 3 {
		t.Errorf("Level(1,6) = %d, want 3 (6/8 of 4 bits)", got)
	}
	v := e.Encode(flow.Stats{Bytes: 3, Packets: 6})
	if want := (Levels{3, 3, 0, 0, 0}); v != want {
		t.Errorf("Encode = %v, want %v", v, want)
	}
	// First stat: 3 ones in bits 0..3; second: 3 ones in bits 4..7.
	if got := unaryWords(v, 20); got[0] != 0b0111_0111 {
		t.Errorf("unary code %b, want 1110111", got[0])
	}
}

func TestEncoderClamping(t *testing.T) {
	e := MustDefaultEncoder()
	if got := e.Level(0, -5); got != 0 {
		t.Errorf("Level below min = %d", got)
	}
	if got := e.Level(0, 1e12); got != e.D()/flow.NumStats {
		t.Errorf("Level above max = %d", got)
	}
}

// TestEncoderHammingIsL1 verifies the identity the level representation
// rests on: the Hamming distance between two unary codes equals Distance,
// the L1 distance between their levels.
func TestEncoderHammingIsL1(t *testing.T) {
	dc := DefaultD / flow.NumStats
	f := func(a, b [flow.NumStats]uint8) bool {
		var u, v Levels
		for s := range u {
			u[s], v[s] = a[s]%uint8(dc+1), b[s]%uint8(dc+1)
		}
		return unary(u, DefaultD).hamming(unary(v, DefaultD)) == Distance(u, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	e := MustDefaultEncoder()
	huge := flow.Stats{Bytes: 1e12, Packets: 1e12, DurationMS: 1e12, BitRate: 1e12, PacketRate: 1e12}
	if got := Distance(e.Encode(flow.Stats{}), e.Encode(huge)); got != DefaultD {
		t.Errorf("all-minimum to all-clamped distance %d, want %d", got, DefaultD)
	}
}

func TestNewEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, DefaultRanges()); err == nil {
		t.Error("d=0: want error")
	}
	if _, err := NewEncoder(7, DefaultRanges()); err == nil {
		t.Error("d not multiple of stats: want error")
	}
	if _, err := NewEncoder(1280, DefaultRanges()); err == nil {
		t.Error("d=1280 (256 bits per statistic): want error")
	}
	bad := DefaultRanges()
	bad[2] = StatRange{Min: 5, Max: 5}
	if _, err := NewEncoder(DefaultD, bad); err == nil {
		t.Error("empty range: want error")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{
		{D: 0, M1: 1, M2: 12, M3: 3},
		{D: 721, M1: 1, M2: 12, M3: 3},
		{D: 720, M1: 1, M2: 17, M3: 3},
		{D: 720, M1: 0, M2: 12, M3: 3},
		{D: 720, M1: 1, M2: 0, M3: 3},
		{D: 720, M1: 1, M2: 25, M3: 3},
		{D: 720, M1: 1, M2: 12, M3: 0},
		{D: 720, M1: 1, M2: 12, M3: 13},
	} {
		if err := p.validate(); err == nil {
			t.Errorf("validate(%+v): want error", p)
		}
	}
	if err := DefaultParams().validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestTraceNeighborMasksCount(t *testing.T) {
	// M2=12, M3=3: C(12,0)+C(12,1)+C(12,2) = 1+12+66 = 79 masks.
	masks := traceNeighborMasks(12, 3)
	if len(masks) != 79 {
		t.Fatalf("%d masks, want 79", len(masks))
	}
	seen := map[int]bool{}
	for _, m := range masks {
		if seen[m] {
			t.Fatalf("duplicate mask %b", m)
		}
		seen[m] = true
		if popcount(m) >= 3 {
			t.Fatalf("mask %b flips %d bits", m, popcount(m))
		}
	}
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(DefaultParams(), nil); err == nil {
		t.Error("empty cluster: want error")
	}
	for _, v := range overRange() {
		if _, err := Build(DefaultParams(), []Levels{{}, v}); err == nil {
			t.Errorf("level above dC in %v: want error", v)
		}
	}
	bad := DefaultParams()
	bad.M2 = 0
	if _, err := Build(bad, []Levels{{}}); err == nil {
		t.Error("bad params: want error")
	}
}

// overRange returns level vectors with dC+1 at the first and at the last
// statistic, the levels that would read the next statistic's trace row.
func overRange() []Levels {
	const over = DefaultD/flow.NumStats + 1
	return []Levels{{over, 0, 0, 0, 0}, {0, 0, 0, 0, over}}
}

// clusterAround builds synthetic unary-encoded flows near a center level
// pattern, plus the encoder used.
func clusterAround(t *testing.T, rng *rand.Rand, n int, center flow.Stats, spread float64) (*Encoder, []Levels, []flow.Stats) {
	t.Helper()
	e := MustDefaultEncoder()
	vecs := make([]Levels, 0, n)
	stats := make([]flow.Stats, 0, n)
	for i := 0; i < n; i++ {
		s := flow.Stats{
			Bytes:      center.Bytes * (1 + spread*(rng.Float64()-0.5)),
			Packets:    center.Packets * (1 + spread*(rng.Float64()-0.5)),
			DurationMS: center.DurationMS * (1 + spread*(rng.Float64()-0.5)),
			BitRate:    center.BitRate * (1 + spread*(rng.Float64()-0.5)),
			PacketRate: center.PacketRate * (1 + spread*(rng.Float64()-0.5)),
		}
		stats = append(stats, s)
		vecs = append(vecs, e.Encode(s))
	}
	return e, vecs, stats
}

var httpCenter = flow.Stats{Bytes: 20000, Packets: 30, DurationMS: 1500, BitRate: 100000, PacketRate: 20}

func TestSearchFindsExactMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, vecs, _ := clusterAround(t, rng, 60, httpCenter, 0.4)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	// Querying with a training member must find a very close neighbor —
	// the approximation returns a representative within a few trace
	// collisions of the member itself (empirically ≤ ~20 of 720 bits).
	for i := 0; i < 20; i++ {
		res, ok := st.Search(vecs[i])
		if !ok {
			t.Fatalf("Search returned nothing for member %d", i)
		}
		if res.Distance > 60 {
			t.Errorf("member %d neighbor at distance %d, want ≤ 60", i, res.Distance)
		}
	}
}

func TestSearchApproximatesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, vecs, _ := clusterAround(t, rng, 80, httpCenter, 0.5)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		q := e.Encode(flow.Stats{
			Bytes:      httpCenter.Bytes * (1 + 0.6*(rng.Float64()-0.5)),
			Packets:    httpCenter.Packets * (1 + 0.6*(rng.Float64()-0.5)),
			DurationMS: httpCenter.DurationMS,
			BitRate:    httpCenter.BitRate,
			PacketRate: httpCenter.PacketRate,
		})
		res, ok := st.Search(q)
		if !ok {
			t.Fatal("no neighbor found")
		}
		best := 1 << 30
		for _, v := range vecs {
			if h := Distance(q, v); h < best {
				best = h
			}
		}
		// KOR is an approximation: allow a generous factor but require the
		// same order of magnitude.
		if res.Distance > 4*best+40 {
			t.Errorf("trial %d: approx distance %d vs exact %d", trial, res.Distance, best)
		}
	}
}

func TestSearchSeparatesFarQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, vecs, _ := clusterAround(t, rng, 80, httpCenter, 0.4)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	// An exploit-like flow: huge byte count, tiny duration, extreme rates.
	q := e.Encode(flow.Stats{Bytes: 120000, Packets: 80, DurationMS: 40, BitRate: 23e6, PacketRate: 2000})
	res, ok := st.Search(q)
	if !ok {
		t.Fatal("no neighbor for far query")
	}
	// Near-query distances for comparison.
	near, ok := st.Search(vecs[0])
	if !ok {
		t.Fatal("no neighbor for member")
	}
	if res.Distance <= near.Distance+100 {
		t.Errorf("far query distance %d not well beyond member distance %d", res.Distance, near.Distance)
	}
}

// TestExactSearchIsGroundTruth verifies ExactSearch against a manual scan
// and bounds the approximate search's excess distance over it.
func TestExactSearchIsGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, vecs, _ := clusterAround(t, rng, 60, httpCenter, 0.5)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	var excess int
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		q := e.Encode(flow.Stats{
			Bytes:      httpCenter.Bytes * (1 + 0.7*(rng.Float64()-0.5)),
			Packets:    httpCenter.Packets * (1 + 0.7*(rng.Float64()-0.5)),
			DurationMS: httpCenter.DurationMS,
			BitRate:    httpCenter.BitRate,
			PacketRate: httpCenter.PacketRate,
		})
		exact, ok := st.ExactSearch(q)
		if !ok {
			t.Fatal("exact search failed")
		}
		// Cross-check against a manual scan.
		want := 1 << 30
		for _, v := range vecs {
			if h := Distance(q, v); h < want {
				want = h
			}
		}
		if exact.Distance != want {
			t.Fatalf("ExactSearch distance %d, manual scan %d", exact.Distance, want)
		}
		approx, ok := st.Search(q)
		if !ok {
			t.Fatal("approx search failed")
		}
		if approx.Distance < exact.Distance {
			t.Fatalf("approx distance %d below exact %d", approx.Distance, exact.Distance)
		}
		excess += approx.Distance - exact.Distance
	}
	if avg := float64(excess) / trials; avg > 30 {
		t.Errorf("mean approximation excess %.1f bits of 720, want tight", avg)
	}
}

func TestExactSearchWrongDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, vecs, _ := clusterAround(t, rng, 10, httpCenter, 0.3)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range overRange() {
		if _, ok := st.ExactSearch(q); ok {
			t.Errorf("exact query %v with a level above dC should fail", q)
		}
	}
}

// TestMultiTableM1 exercises M1>1 (the paper uses M1=1): structures must
// build and search correctly with redundant tables.
func TestMultiTableM1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, vecs, _ := clusterAround(t, rng, 40, httpCenter, 0.4)
	params := DefaultParams()
	params.M1 = 3
	st, err := Build(params, vecs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := st.Search(vecs[i]); !ok {
			t.Fatalf("M1=3 search failed for member %d", i)
		}
	}
}

func TestSearchWrongDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, vecs, _ := clusterAround(t, rng, 20, httpCenter, 0.3)
	st, err := Build(DefaultParams(), vecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range overRange() {
		if _, ok := st.Search(q); ok {
			t.Errorf("query %v with a level above dC should fail", q)
		}
	}
}
