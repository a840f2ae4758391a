package scan

import (
	"infilter/internal/flow"
	"infilter/internal/sketch"
)

// scanSketchSeed keys every KMV register; fixed for reproducibility
// (the registers defend memory, and below k they count exactly).
const scanSketchSeed = 0x5ca9_90a1

// newKMV returns an empty register sketch. k is fixed at
// sketch.DefaultK, far above every scan threshold, so a count that can
// still decide a trip is exact: holding the analyzer to exact
// distinct-target sets rests on it.
func newKMV() *sketch.KMV { return sketch.New(sketch.DefaultK, scanSketchSeed) }

// register is one distinct-count slot of the sketch backend: a KMV for
// the current decay generation plus the previous generation's sketch,
// so estimates cover a sliding window of one-to-two generations and a
// scan burst straddling a rotation is still seen whole. gen records the
// generation the register was last synced to; a register two
// generations stale holds only forgotten history and is dropped.
type register struct {
	cur  *sketch.KMV
	prev *sketch.KMV
	gen  uint64
}

// sync rolls the register forward to generation g, retiring cur to prev
// on a single-step advance and discarding everything on a larger jump.
func (r *register) sync(g uint64) {
	switch {
	case r.gen == g:
	case r.gen+1 == g:
		r.prev = r.cur
		r.cur = newKMV()
		r.gen = g
	default:
		r.cur.Reset()
		r.prev = nil
		r.gen = g
	}
}

// estimate returns the distinct count over the register's window.
func (r *register) estimate(g uint64) float64 {
	switch {
	case r == nil:
		return 0
	case r.gen == g:
		return sketch.UnionEstimate(r.cur, r.prev)
	case r.gen+1 == g:
		// Not yet synced this generation: cur is one window old and
		// still inside the horizon; prev has aged out.
		return r.cur.Estimate()
	default:
		return 0
	}
}

func (a *Analyzer) regEstimate(r *register) float64 { return r.estimate(a.gen) }

// regTable is one register table: per destination port (keyed by
// uint16) or per destination host (keyed by netaddr.Addr).
type regTable[K comparable] map[K]*register

// lookup returns key's register synced to generation g, opening one when
// key has none. A table at limit first reclaims stale registers; when
// none was stale it returns nil and the caller counts an overflow.
func (t regTable[K]) lookup(key K, g uint64, limit int) *register {
	if r, ok := t[key]; ok {
		r.sync(g)
		return r
	}
	if len(t) >= limit && !t.reclaim(g) {
		return nil
	}
	r := &register{cur: newKMV(), gen: g}
	t[key] = r
	return r
}

// reclaim sweeps registers that aged fully out of the window at
// generation g; it reports whether any slot was freed.
func (t regTable[K]) reclaim(g uint64) bool {
	freed := false
	for key, r := range t {
		if r.gen+1 < g {
			delete(t, key)
			freed = true
		}
	}
	return freed
}

// addSketch is the admission path: insert the
// destination host into the port's register and the destination port
// into the host's register, then compare windowed distinct estimates
// against the thresholds. Cost is bounded by the register size k no
// matter how many distinct targets the stream has touched — the
// property the bench gate holds flat from 10x to 1000x cardinality.
func (a *Analyzer) addSketch(rec flow.Record) Result {
	port, host := rec.Key.DstPort, rec.Key.Dst
	res := Result{Buffered: true}

	if pr := a.portRegs.lookup(port, a.gen, a.cfg.MaxRegisters); pr != nil {
		pr.cur.Insert(sketchKey(host))
		res.NetworkScan = pr.estimate(a.gen) >= float64(a.cfg.NetworkScanThreshold)
	} else {
		a.metrics.SketchOverflows.Inc()
	}
	if hr := a.hostRegs.lookup(host, a.gen, a.cfg.MaxRegisters); hr != nil {
		hr.cur.Insert(uint64(rec.Key.DstPort))
		res.HostScan = hr.estimate(a.gen) >= float64(a.cfg.HostScanThreshold)
	} else {
		a.metrics.SketchOverflows.Inc()
	}

	a.sinceRotate++
	if a.sinceRotate >= a.cfg.BufferSize {
		a.rotate()
	}
	return res
}

// rotate advances the decay generation: registers retire lazily on next
// touch, and registers already two generations stale are dropped so the
// tables shrink back after a burst of distinct targets.
func (a *Analyzer) rotate() {
	a.gen++
	a.sinceRotate = 0
	a.portRegs.reclaim(a.gen)
	a.hostRegs.reclaim(a.gen)
	a.metrics.SketchDecays.Inc()
}
