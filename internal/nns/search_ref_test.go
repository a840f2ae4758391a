package nns

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"infilter/internal/flow"
	"infilter/internal/telemetry"
	"infilter/internal/trace"
)

// Dot returns the inner product of v and u over GF(2) — the paper's Test
// procedure: parity of the AND of the two vectors. The reference below
// uses it the way the paper states Test; Search fuses it across a table's
// test vectors instead.
func (v BitVec) Dot(u BitVec) int {
	if v.n != u.n {
		panic(fmt.Sprintf("nns: Dot of %d-bit and %d-bit vectors", v.n, u.n))
	}
	parity := 0
	for i := range v.bits {
		parity ^= bits.OnesCount64(v.bits[i]&u.bits[i]) & 1
	}
	return parity
}

// refTable is one T_ij rebuilt the slow way: one BitVec per test vector
// drawn bit by bit, traces by M2 separate Dot calls.
type refTable struct {
	tests   []BitVec
	entries []int32
}

func (t refTable) trace(v BitVec) int {
	z := 0
	for k, u := range t.tests {
		z |= u.Dot(v) << uint(k)
	}
	return z
}

// refStructure is the KOR structure of paper Figures 6-8 as first written
// here: the same seeds and draws as Build, kept unoptimised as the oracle
// Build and Search are compared against.
type refStructure struct {
	params  Params
	cluster []BitVec
	subs    [][]refTable
}

func refBuild(params Params, cluster []BitVec) *refStructure {
	s := &refStructure{params: params, cluster: cluster, subs: make([][]refTable, params.D)}
	neighbors := traceNeighborMasks(params.M2, params.M3)
	for i := 1; i <= params.D; i++ {
		rng := rand.New(rand.NewSource(subSeed(params.Seed, i)))
		p := 1 / (2 * float64(i)) / 2
		tabs := make([]refTable, params.M1)
		for j := range tabs {
			t := refTable{tests: make([]BitVec, params.M2), entries: make([]int32, 1<<uint(params.M2))}
			for k := range t.entries {
				t.entries[k] = -1
			}
			for k := range t.tests {
				t.tests[k] = NewBitVec(params.D)
				for bit := 0; bit < params.D; bit++ {
					if rng.Float64() < p {
						t.tests[k].Set(bit)
					}
				}
			}
			for fi, fv := range cluster {
				z := t.trace(fv)
				for _, m := range neighbors {
					t.entries[z^m] = int32(fi)
				}
			}
			tabs[j] = t
		}
		s.subs[i-1] = tabs
	}
	return s
}

// search draws the M1 table choice from a freshly seeded rng on every
// query, as the paper's pseudo-code reads.
func (s *refStructure) search(query BitVec) (Result, bool) {
	if query.Len() != s.params.D {
		return Result{}, false
	}
	bestIdx, bestDist := -1, 0
	consider := func(idx int32) {
		if idx < 0 {
			return
		}
		if d := query.Hamming(s.cluster[idx]); bestIdx < 0 || d < bestDist {
			bestIdx, bestDist = int(idx), d
		}
	}
	rng := rand.New(rand.NewSource(s.params.Seed ^ 0x5f5f5f5f))
	lo, hi := 1, s.params.D
	for lo < hi {
		mid := (lo + hi) / 2
		tabs := s.subs[mid-1]
		t := tabs[rng.Intn(len(tabs))]
		if idx := t.entries[t.trace(query)]; idx >= 0 {
			consider(idx)
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	tabs := s.subs[lo-1]
	t := tabs[rng.Intn(len(tabs))]
	consider(t.entries[t.trace(query)])
	if bestIdx < 0 {
		return Result{}, false
	}
	return Result{Index: bestIdx, Distance: bestDist}, true
}

// randomVec returns a d-bit vector with each bit set with probability p.
func randomVec(rng *rand.Rand, d int, p float64) BitVec {
	v := NewBitVec(d)
	for i := 0; i < d; i++ {
		if rng.Float64() < p {
			v.Set(i)
		}
	}
	return v
}

// perturb flips n random bits of a copy of v.
func perturb(rng *rand.Rand, v BitVec, n int) BitVec {
	out := v.Clone()
	for i := 0; i < n; i++ {
		j := rng.Intn(v.Len())
		out.bits[j>>6] ^= 1 << (uint(j) & 63)
	}
	return out
}

// TestSearchMatchesReference requires Build to lay down the reference's
// test vectors and tables, and Search to return the reference's Result —
// same Index, same Distance, same ok — for every query, over randomized
// clusters at M1 ∈ {1,2,3} and M2 ∈ {8,12}. Both dimensions end in a
// partial word. Build's cost is quadratic in D, so the paper's 720 is left
// to the golden model test.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{130, 350} {
		for _, m1 := range []int{1, 2, 3} {
			for _, m2 := range []int{8, 12} {
				params := Params{D: d, M1: m1, M2: m2, M3: 3, Seed: rng.Int63()}
				t.Run(fmt.Sprintf("D=%d/M1=%d/M2=%d", d, m1, m2), func(t *testing.T) {
					// Half the cluster sits near one center, half is spread out.
					center := randomVec(rng, d, 0.3)
					var cluster []BitVec
					for i := 0; i < 40; i++ {
						if i%2 == 0 {
							cluster = append(cluster, perturb(rng, center, 1+rng.Intn(30)))
						} else {
							cluster = append(cluster, randomVec(rng, d, 0.3))
						}
					}
					st, err := Build(params, cluster)
					if err != nil {
						t.Fatal(err)
					}
					ref := refBuild(params, cluster)
					w := wordsFor(d)
					for i := range ref.subs {
						for j, rt := range ref.subs[i] {
							got := st.subs[i][j]
							for k, u := range rt.tests {
								view := BitVec{bits: got.tests[k*w : (k+1)*w], n: d}
								if !view.Equal(u) {
									t.Fatalf("S_%d table %d test vector %d differs from the reference draw", i+1, j, k)
								}
							}
							for e, idx := range rt.entries {
								if got.entries[e] != idx {
									t.Fatalf("S_%d table %d entry %d = %d, reference %d", i+1, j, e, got.entries[e], idx)
								}
							}
						}
					}
					for q := 0; q < 300; q++ {
						var query BitVec
						switch q % 3 {
						case 0:
							query = cluster[rng.Intn(len(cluster))]
						case 1:
							query = perturb(rng, cluster[rng.Intn(len(cluster))], 1+rng.Intn(40))
						default:
							query = randomVec(rng, d, rng.Float64())
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

// encodeBits is Encode as first written: one Set per bit of each run.
func encodeBits(e *Encoder, s flow.Stats) BitVec {
	out := NewBitVec(e.d)
	vec := s.Vector()
	for stat := 0; stat < flow.NumStats; stat++ {
		level := e.Level(stat, vec[stat])
		for i := 0; i < level; i++ {
			out.Set(stat*e.dc + i)
		}
	}
	return out
}

// TestSetRunMatchesBitByBit covers every run [lo, hi) over three words,
// so runs starting mid-word, ending on a boundary and spanning a whole
// word are all exercised.
func TestSetRunMatchesBitByBit(t *testing.T) {
	const n = 192
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			got, want := NewBitVec(n), NewBitVec(n)
			setRun(got.bits, lo, hi)
			for i := lo; i < hi; i++ {
				want.Set(i)
			}
			if !got.Equal(want) {
				t.Fatalf("setRun(%d, %d) = %x, want %x", lo, hi, got.bits, want.bits)
			}
		}
	}
}

// TestEncodeIntoMatchesBitByBit compares the word-mask encoder with the
// bit-by-bit one. With dC = 144 the five runs start at bits 0, 144, 288,
// 432 and 576, mid-word; values below Min and above Max clamp to levels 0
// and dC. The buffer is dirtied first, since the assess path reuses one.
func TestEncodeIntoMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	value := func(r StatRange) float64 {
		switch rng.Intn(6) {
		case 0:
			return r.Min - 1 // level 0
		case 1:
			return r.Max * 10 // level dC
		case 2:
			return r.Min
		default:
			return math.Expm1(rng.Float64() * math.Log1p(r.Max-r.Min))
		}
	}
	for _, d := range []int{20, 355, 640, DefaultD} {
		e, err := NewEncoder(d, DefaultRanges())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 2000; trial++ {
			var vec [flow.NumStats]float64
			for i := range vec {
				vec[i] = value(e.ranges[i])
			}
			s := flow.Stats{Bytes: vec[0], Packets: vec[1], DurationMS: vec[2], BitRate: vec[3], PacketRate: vec[4]}
			want := encodeBits(e, s)
			var buf [assessWords]uint64
			for i := range buf {
				buf[i] = ^uint64(0)
			}
			if got := e.encodeInto(buf[:], s); !got.Equal(want) {
				t.Fatalf("d=%d %+v: encodeInto %x, bit by bit %x", d, s, got.bits, want.bits)
			}
			if got := e.Encode(s); !got.Equal(want) {
				t.Fatalf("d=%d %+v: Encode %x, bit by bit %x", d, s, got.bits, want.bits)
			}
		}
	}
	e := MustDefaultEncoder()
	if got := e.Encode(flow.Stats{}); got.OnesCount() != 0 {
		t.Errorf("all-minimum stats set %d bits", got.OnesCount())
	}
	huge := flow.Stats{Bytes: 1e12, Packets: 1e12, DurationMS: 1e12, BitRate: 1e12, PacketRate: 1e12}
	if got := e.Encode(huge); got.OnesCount() != DefaultD {
		t.Errorf("all-clamped stats set %d of %d bits", got.OnesCount(), DefaultD)
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
