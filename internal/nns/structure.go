package nns

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"

	"infilter/internal/flow"
)

// Params are the KOR structure parameters. The paper's experiments use
// d=720, M1=1, M2=12, M3=3 (§4.2).
type Params struct {
	D  int // encoding dimension: a multiple of 5, at most 255 bits per statistic
	M1 int // tables per substructure
	M2 int // test vectors (trace bits) per table, at most 16
	M3 int // Hamming radius for table fill: entries z with HD(trace,z) < M3
	// Seed fixes the test-vector PRNG.
	Seed int64
}

// DefaultParams returns the paper's parameter set.
func DefaultParams() Params {
	return Params{D: DefaultD, M1: 1, M2: 12, M3: 3, Seed: 1}
}

func (p Params) validate() error {
	if err := checkDim(p.D); err != nil {
		return err
	}
	switch {
	case p.M1 <= 0:
		return fmt.Errorf("nns: M1 must be positive, got %d", p.M1)
	case p.M2 <= 0 || p.M2 > 16:
		return fmt.Errorf("nns: M2 must be in [1,16], got %d", p.M2)
	case p.M3 <= 0 || p.M3 > p.M2:
		return fmt.Errorf("nns: M3 must be in [1,M2], got %d", p.M3)
	default:
		return nil
	}
}

// table is one T_ij: its M2 test vectors as trace rows, and the
// 2^M2-entry table holding, per entry, the index of the last training
// flow entered (-1 when empty). The paper's search only needs emptiness
// plus one representative flow. Statistic s owns rows[s*(dC+1):][:dC+1],
// whose element l holds, in bit k, the parity of test vector k over the
// first l of s's dC bits — its parity over a run of l ones — so a flow's
// trace is the XOR of one element per statistic.
type table struct {
	rows    []uint16
	entries []int32
}

// trace computes trace(φ) = (Test(u_1,φ),…,Test(u_M2,φ)) packed into an
// integer, Test being the parity of popcount(u & φ).
func (t *table) trace(q Levels) int {
	stride := len(t.rows) / flow.NumStats
	var z uint16
	for s, l := range q {
		z ^= t.rows[s*stride+int(l)]
	}
	return int(z)
}

// Structure is the per-cluster KOR search structure over a training set.
// It is read-only once built, so any number of goroutines may search it.
type Structure struct {
	params  Params
	cluster []Levels  // encoded training flows, by index
	subs    [][]table // subs[i-1] are the M1 tables of S_i, i = distance 1..D
	// picks[k] is the table of S_t that the k-th probe of every search
	// reads, drawn once from the structure seed.
	picks []int
}

// Build constructs the structure over the encoded training cluster,
// following the creation algorithm of paper Figure 6: substructure S_i
// gets test vectors from CreateTestVector(b=1/(2i)), and each flow is
// entered at every table entry within Hamming radius M3 of its trace.
func Build(params Params, cluster []Levels) (*Structure, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if len(cluster) == 0 {
		return nil, fmt.Errorf("nns: empty training cluster")
	}
	for i, v := range cluster {
		if !inRange(params, v) {
			return nil, fmt.Errorf("nns: training flow %d has levels %v, want each at most %d", i, v, params.D/flow.NumStats)
		}
	}
	s := &Structure{
		params:  params,
		cluster: cluster,
		subs:    make([][]table, params.D),
		picks:   drawPicks(params),
	}
	neighbors := traceNeighborMasks(params.M2, params.M3)
	// Each substructure draws its test vectors from its own seed-derived
	// stream, so creation parallelizes across substructures while staying
	// deterministic in params.Seed (the property the model serializer
	// relies on).
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > params.D {
		workers = params.D
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Reseeded per substructure: a fresh source is 5 KB of garbage.
			rng := rand.New(rand.NewSource(0))
			for i := range next {
				s.subs[i-1] = buildSubstructure(rng, params, cluster, neighbors, i)
			}
		}()
	}
	for i := 1; i <= params.D; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return s, nil
}

// inRange reports whether every level of v is at most dC, so that it
// indexes its own statistic's trace row.
func inRange(params Params, v Levels) bool {
	for _, l := range v {
		if int(l) > params.D/flow.NumStats {
			return false
		}
	}
	return true
}

// buildSubstructure constructs S_i's M1 tables from rng reseeded for S_i.
func buildSubstructure(rng *rand.Rand, params Params, cluster []Levels, neighbors []int, i int) []table {
	rng.Seed(subSeed(params.Seed, i))
	b := 1 / (2 * float64(i))
	tabs := make([]table, params.M1)
	for j := range tabs {
		t := table{
			rows:    make([]uint16, params.D+flow.NumStats),
			entries: make([]int32, 1<<uint(params.M2)),
		}
		for k := range t.entries {
			t.entries[k] = -1
		}
		for k := 0; k < params.M2; k++ {
			createTestVector(rng, t.rows, k, b)
		}
		for fi, fv := range cluster {
			z := t.trace(fv)
			for _, m := range neighbors {
				t.entries[z^m] = int32(fi)
			}
		}
		tabs[j] = t
	}
	return tabs
}

// subSeed derives substructure i's PRNG seed from the structure seed.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// drawPicks fixes which of S_t's M1 tables each probe of a search reads.
// The draw sequence depends only on the seed and M1, never on the query, so
// it is taken once here: a binary search over 1..D makes at most
// bits.Len(D) halving probes plus the final one.
func drawPicks(params Params) []int {
	rng := rand.New(rand.NewSource(params.Seed ^ 0x5f5f5f5f))
	picks := make([]int, bits.Len(uint(params.D))+1)
	for k := range picks {
		picks[k] = rng.Intn(params.M1)
	}
	return picks
}

// createTestVector is the paper's CreateTestVector for test vector k:
// each of the d bits is 1 with probability b/2, independently, drawn in
// bit order. It keeps only what a trace reads: the running parity of each
// statistic's bits, written to bit k of the rows.
func createTestVector(rng *rand.Rand, rows []uint16, k int, b float64) {
	p := b / 2
	stride := len(rows) / flow.NumStats
	var parity uint16
	for i := range rows {
		if i%stride == 0 {
			parity = 0 // a run of no ones
		} else if rng.Float64() < p {
			parity ^= 1
		}
		rows[i] |= parity << uint(k)
	}
}

// traceNeighborMasks enumerates the XOR masks of all M2-bit strings within
// Hamming distance < m3 of a given trace (0, 1 and 2 bit flips for the
// paper's M3=3).
func traceNeighborMasks(m2, m3 int) []int {
	masks := []int{0}
	if m3 >= 2 {
		for i := 0; i < m2; i++ {
			masks = append(masks, 1<<uint(i))
		}
	}
	if m3 >= 3 {
		for i := 0; i < m2; i++ {
			for j := i + 1; j < m2; j++ {
				masks = append(masks, 1<<uint(i)|1<<uint(j))
			}
		}
	}
	if m3 >= 4 {
		// General case for radii beyond the paper's: recurse over flip
		// counts 3..m3-1.
		var rec func(start, left, mask int)
		rec = func(start, left, mask int) {
			if left == 0 {
				masks = append(masks, mask)
				return
			}
			for i := start; i < m2; i++ {
				rec(i+1, left-1, mask|1<<uint(i))
			}
		}
		for flips := 3; flips < m3; flips++ {
			rec(0, flips, 0)
		}
	}
	return masks
}

// Result is a nearest-neighbor answer.
type Result struct {
	// Index of the neighbor within the training cluster.
	Index int
	// Distance is the exact Hamming distance between query and neighbor.
	Distance int
}

// Search runs the binary search of paper Figure 8: at candidate distance t
// it reads one of S_t's tables (the k-th probe reads table picks[k], fixed
// at Build), computes the query's trace, and narrows toward smaller
// distances whenever the table entry holds a training flow. Among the
// O(log d) representatives the probes surface, it returns the one at
// minimum exact Hamming distance from the query — a refinement of the
// paper's "last non-empty entry" rule that costs nothing extra (each probe
// already touches its representative) and sharply reduces approximation
// noise. A query with a level above dC finds nothing. Search does not
// allocate.
func (s *Structure) Search(query Levels) (Result, bool) {
	if !inRange(s.params, query) {
		return Result{}, false
	}
	var (
		bestIdx  = -1
		bestDist = 0
		lo, hi   = 1, s.params.D
	)
	for k := 0; ; k++ {
		mid := (lo + hi) / 2
		t := &s.subs[mid-1][s.picks[k]]
		idx := t.entries[t.trace(query)]
		if idx >= 0 {
			if d := Distance(query, s.cluster[idx]); bestIdx < 0 || d < bestDist {
				bestIdx, bestDist = int(idx), d
			}
		}
		if lo == hi { // the final distance has been probed as well
			break
		}
		if idx >= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if bestIdx < 0 {
		return Result{}, false
	}
	return Result{Index: bestIdx, Distance: bestDist}, true
}

// ExactSearch is the brute-force comparator: the true nearest neighbor by
// linear scan. It exists to quantify the KOR structure's approximation
// quality (see the ablation benchmarks) and as a reference in tests; it is
// O(n) per query where Search is O(log d).
func (s *Structure) ExactSearch(query Levels) (Result, bool) {
	if !inRange(s.params, query) || len(s.cluster) == 0 {
		return Result{}, false
	}
	best, bestIdx := -1, -1
	for i, v := range s.cluster {
		if h := Distance(query, v); best < 0 || h < best {
			best, bestIdx = h, i
		}
	}
	return Result{Index: bestIdx, Distance: best}, true
}
