package nns

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"infilter/internal/flow"
	"infilter/internal/telemetry"
	"infilter/internal/trace"
)

// bitVec is a vector in {0,1}^d, bit i in word i/64: the paper's form of
// an encoded flow, kept for the bit-level reference below.
type bitVec []uint64

func newBitVec(d int) bitVec { return make(bitVec, (d+63)/64) }

func (v bitVec) set(i int) { v[i/64] |= 1 << (i % 64) }

// Dot returns the inner product of v and u over GF(2) — the paper's Test
// procedure: parity of the AND of the two vectors.
func (v bitVec) Dot(u bitVec) int {
	parity := 0
	for i := range v {
		parity ^= bits.OnesCount64(v[i]&u[i]) & 1
	}
	return parity
}

func (v bitVec) hamming(u bitVec) int {
	n := 0
	for i := range v {
		n += bits.OnesCount64(v[i] ^ u[i])
	}
	return n
}

// unary is the paper's unary code of q in {0,1}^d, set one bit at a time:
// per statistic, q[s] ones from its first bit, then zeros.
func unary(q Levels, d int) bitVec {
	dc := d / flow.NumStats
	v := newBitVec(d)
	for s, l := range q {
		for i := 0; i < int(l); i++ {
			v.set(s*dc + i)
		}
	}
	return v
}

// refTable is one T_ij built the slow way: one bitVec per test vector
// drawn bit by bit, traces by M2 separate Dot calls over unary codes.
// traces holds each training flow's trace; the entries are not stored.
type refTable struct {
	tests  []bitVec
	traces []int
}

func (t refTable) trace(v bitVec) int {
	z := 0
	for k, u := range t.tests {
		z |= u.Dot(v) << uint(k)
	}
	return z
}

// fill writes the table into dst as Figure 6 does: each flow in turn is
// entered at every z within Hamming distance < M3 of its trace.
func (t refTable) fill(dst []int32, neighbors []int) {
	for z := range dst {
		dst[z] = -1
	}
	for fi, z := range t.traces {
		for _, m := range neighbors {
			dst[z^m] = int32(fi)
		}
	}
}

// entry reads entry z of the table fill writes without storing it: the
// last flow whose trace lies within Hamming distance < M3 of z.
func (t refTable) entry(z, m3 int) int32 {
	for fi := len(t.traces) - 1; fi >= 0; fi-- {
		if bits.OnesCount(uint(t.traces[fi]^z)) < m3 {
			return int32(fi)
		}
	}
	return -1
}

// refStructure is the KOR structure of paper Figures 6-8 over {0,1}^d:
// the same seeds and draws as Build, kept unoptimised as the oracle Build
// and Search are compared against.
type refStructure struct {
	params  Params
	cluster []bitVec
	subs    [][]refTable
}

func refBuild(params Params, cluster []Levels) *refStructure {
	s := &refStructure{params: params, subs: make([][]refTable, params.D)}
	for _, v := range cluster {
		s.cluster = append(s.cluster, unary(v, params.D))
	}
	for i := 1; i <= params.D; i++ {
		rng := rand.New(rand.NewSource(subSeed(params.Seed, i)))
		p := 1 / (2 * float64(i)) / 2
		tabs := make([]refTable, params.M1)
		for j := range tabs {
			t := refTable{tests: make([]bitVec, params.M2)}
			for k := range t.tests {
				t.tests[k] = newBitVec(params.D)
				for bit := 0; bit < params.D; bit++ {
					if rng.Float64() < p {
						t.tests[k].set(bit)
					}
				}
			}
			for _, fv := range s.cluster {
				t.traces = append(t.traces, t.trace(fv))
			}
			tabs[j] = t
		}
		s.subs[i-1] = tabs
	}
	return s
}

// search draws the M1 table choice from a freshly seeded rng on every
// query, as the paper's pseudo-code reads.
func (s *refStructure) search(q Levels) (Result, bool) {
	dc := s.params.D / flow.NumStats
	for _, l := range q {
		if int(l) > dc {
			return Result{}, false
		}
	}
	query := unary(q, s.params.D)
	bestIdx, bestDist := -1, 0
	consider := func(idx int32) {
		if idx < 0 {
			return
		}
		if d := query.hamming(s.cluster[idx]); bestIdx < 0 || d < bestDist {
			bestIdx, bestDist = int(idx), d
		}
	}
	rng := rand.New(rand.NewSource(s.params.Seed ^ 0x5f5f5f5f))
	lo, hi := 1, s.params.D
	for lo < hi {
		mid := (lo + hi) / 2
		tabs := s.subs[mid-1]
		t := tabs[rng.Intn(len(tabs))]
		if idx := t.entry(t.trace(query), s.params.M3); idx >= 0 {
			consider(idx)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	tabs := s.subs[lo-1]
	t := tabs[rng.Intn(len(tabs))]
	consider(t.entry(t.trace(query), s.params.M3))
	if bestIdx < 0 {
		return Result{}, false
	}
	return Result{Index: bestIdx, Distance: bestDist}, true
}

// randomLevels returns levels drawn uniformly from [0, dc].
func randomLevels(rng *rand.Rand, dc int) Levels {
	var v Levels
	for s := range v {
		v[s] = uint8(rng.Intn(dc + 1))
	}
	return v
}

// perturb moves n random levels of v one step up or down within [0, dc].
func perturb(rng *rand.Rand, v Levels, n, dc int) Levels {
	for i := 0; i < n; i++ {
		s := rng.Intn(flow.NumStats)
		if (rng.Intn(2) == 0 || v[s] == uint8(dc)) && v[s] > 0 {
			v[s]--
		} else if int(v[s]) < dc {
			v[s]++
		}
	}
	return v
}

// TestSearchMatchesReference requires Build to lay down the trace rows
// and tables the bit-level reference gives, and Search to return the
// reference's Result — same Index, same Distance, same ok — for every
// query, over randomized clusters at M1 ∈ {1,2,3} and M2 ∈ {8,12,16}.
// Both dimensions end in a partial word. Build's cost is quadratic in D,
// so the paper's 720 is left to the golden model test.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{130, 350} {
		for _, m1 := range []int{1, 2, 3} {
			for _, m2 := range []int{8, 12, 16} {
				params := Params{D: d, M1: m1, M2: m2, M3: 3, Seed: rng.Int63()}
				t.Run(fmt.Sprintf("D=%d/M1=%d/M2=%d", d, m1, m2), func(t *testing.T) {
					dc := d / flow.NumStats
					// Half the cluster sits near one center, half is spread out.
					center := randomLevels(rng, dc)
					var cluster []Levels
					for i := 0; i < 40; i++ {
						if i%2 == 0 {
							cluster = append(cluster, perturb(rng, center, 1+rng.Intn(30), dc))
						} else {
							cluster = append(cluster, randomLevels(rng, dc))
						}
					}
					st, err := Build(params, cluster)
					if err != nil {
						t.Fatal(err)
					}
					ref := refBuild(params, cluster)
					neighbors := traceNeighborMasks(params.M2, params.M3)
					entries := make([]int32, 1<<params.M2)
					for i := range ref.subs {
						for j, rt := range ref.subs[i] {
							got := st.subs[i][j]
							for s := 0; s < flow.NumStats; s++ {
								prefix := newBitVec(d)
								for l := 0; l <= dc; l++ {
									if row, want := got.rows[s*(dc+1)+l], rt.trace(prefix); int(row) != want {
										t.Fatalf("S_%d table %d: stat %d row[%d] = %#x, reference %#x", i+1, j, s, l, row, want)
									}
									if l < dc {
										prefix.set(s*dc + l)
									}
								}
							}
							rt.fill(entries, neighbors)
							for e, idx := range entries {
								if got.entries[e] != idx {
									t.Fatalf("S_%d table %d entry %d = %d, reference %d", i+1, j, e, got.entries[e], idx)
								}
							}
						}
					}
					for q := 0; q < 300; q++ {
						var query Levels
						switch q % 3 {
						case 0:
							query = cluster[rng.Intn(len(cluster))]
						case 1:
							query = perturb(rng, cluster[rng.Intn(len(cluster))], 1+rng.Intn(40), dc)
						default:
							query = randomLevels(rng, dc)
						}
						want, wantOK := ref.search(query)
						got, gotOK := st.Search(query)
						if got != want || gotOK != wantOK {
							t.Fatalf("query %d: Search = %+v, %v; reference %+v, %v", q, got, gotOK, want, wantOK)
						}
					}
				})
			}
		}
	}
}

// assessProbe returns a trained detector plus benign, SYN-flood and
// exploit queries, and one flow with no trained subcluster. The detector
// is trained once per test binary; callers may install metrics on it but
// must not change it otherwise.
func assessProbe(t testing.TB) (*Detector, []flow.Record) {
	t.Helper()
	if probeDetector == nil {
		d, err := Train(DetectorConfig{}, trainFlows(t, 800, 51))
		if err != nil {
			t.Fatal(err)
		}
		probe := trainFlows(t, 100, 52)
		probe = append(probe, attackFlows(t, trace.AttackSYNFlood, 53)...)
		probe = append(probe, attackFlows(t, trace.AttackHTTPExploit, 54)...)
		probeDetector, probeRecords = d, append(probe, flow.Record{Key: flow.Key{Proto: 47}, Packets: 10, Bytes: 1000})
	}
	return probeDetector, probeRecords
}

var (
	probeDetector *Detector
	probeRecords  []flow.Record
)

func TestAssessDoesNotAllocate(t *testing.T) {
	d, probe := assessProbe(t)
	for _, m := range []*Metrics{nil, NewMetrics(telemetry.NewRegistry())} {
		d.SetMetrics(m)
		i := 0
		allocs := testing.AllocsPerRun(len(probe), func() {
			d.Assess(probe[i%len(probe)])
			i++
		})
		if allocs != 0 {
			t.Errorf("metrics=%v: Assess allocates %.2f times per call, want 0", m != nil, allocs)
		}
	}
}

// TestAssessConcurrentMatchesSerial shares one detector between 8
// goroutines, as ParallelEngine's shards do; under -race it also proves
// the search reads nothing another search writes.
func TestAssessConcurrentMatchesSerial(t *testing.T) {
	d, probe := assessProbe(t)
	d.SetMetrics(NewMetrics(telemetry.NewRegistry()))
	want := assessAll(d, probe)
	const workers = 8
	got := make([][]Assessment, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = assessAll(d, probe)
		}(w)
	}
	wg.Wait()
	for w, as := range got {
		for i, a := range as {
			if a != want[i] {
				t.Fatalf("goroutine %d probe %d: %+v, serial %+v", w, i, a, want[i])
			}
		}
	}
}

// BenchmarkAssess is the per-suspect cost of the Enhanced InFilter check:
// encode plus KOR search against a trained detector.
func BenchmarkAssess(b *testing.B) {
	d, probe := assessProbe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Assess(probe[i%len(probe)])
	}
}
