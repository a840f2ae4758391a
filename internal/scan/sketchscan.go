package scan

import (
	"infilter/internal/flow"
	"infilter/internal/netaddr"
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

// addSketch is the admission path: insert the
// destination host into the port's register and the destination port
// into the host's register, then compare windowed distinct estimates
// against the thresholds. Cost is bounded by the register size k no
// matter how many distinct targets the stream has touched — the
// property the bench gate holds flat from 10x to 1000x cardinality.
func (a *Analyzer) addSketch(rec flow.Record) Result {
	port, host := rec.Key.DstPort, rec.Key.Dst
	res := Result{Buffered: true}

	if pr := a.lookupPortReg(port); pr != nil {
		pr.cur.Insert(sketchKey(host))
		res.NetworkScan = pr.estimate(a.gen) >= float64(a.cfg.NetworkScanThreshold)
	}
	if hr := a.lookupHostReg(host); hr != nil {
		hr.cur.Insert(uint64(rec.Key.DstPort))
		res.HostScan = hr.estimate(a.gen) >= float64(a.cfg.HostScanThreshold)
	}

	a.sinceRotate++
	if a.sinceRotate >= a.cfg.BufferSize {
		a.rotate()
	}
	return res
}

func (a *Analyzer) lookupPortReg(port uint16) *register {
	if r, ok := a.portRegs[port]; ok {
		r.sync(a.gen)
		return r
	}
	if len(a.portRegs) >= a.cfg.MaxRegisters && !a.reclaimPortRegs() {
		a.noteOverflow()
		return nil
	}
	r := &register{cur: newKMV(), gen: a.gen}
	a.portRegs[port] = r
	return r
}

func (a *Analyzer) lookupHostReg(host netaddr.Addr) *register {
	if r, ok := a.hostRegs[host]; ok {
		r.sync(a.gen)
		return r
	}
	if len(a.hostRegs) >= a.cfg.MaxRegisters && !a.reclaimHostRegs() {
		a.noteOverflow()
		return nil
	}
	r := &register{cur: newKMV(), gen: a.gen}
	a.hostRegs[host] = r
	return r
}

// reclaimPortRegs sweeps registers that aged fully out of the window;
// it reports whether any slot was freed.
func (a *Analyzer) reclaimPortRegs() bool {
	freed := false
	for port, r := range a.portRegs {
		if r.gen+1 < a.gen {
			delete(a.portRegs, port)
			freed = true
		}
	}
	return freed
}

func (a *Analyzer) reclaimHostRegs() bool {
	freed := false
	for host, r := range a.hostRegs {
		if r.gen+1 < a.gen {
			delete(a.hostRegs, host)
			freed = true
		}
	}
	return freed
}

// rotate advances the decay generation: registers retire lazily on next
// touch, and registers already two generations stale are dropped so the
// tables shrink back after a burst of distinct targets.
func (a *Analyzer) rotate() {
	a.gen++
	a.sinceRotate = 0
	a.reclaimPortRegs()
	a.reclaimHostRegs()
	if m := a.metrics; m != nil {
		m.SketchDecays.Inc()
	}
}

func (a *Analyzer) noteOverflow() {
	if m := a.metrics; m != nil {
		m.SketchOverflows.Inc()
	}
}
