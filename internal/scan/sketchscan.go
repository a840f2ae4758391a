package scan

import "infilter/internal/flow"

// keySet is one generation's distinct keys.
type keySet map[uint64]struct{}

// register is one distinct-count slot: the exact key sets of the
// current and previous decay generations, so counts cover a sliding
// window of one-to-two generations and a scan burst straddling a
// rotation is still seen whole. n is |cur ∪ prev|, kept incrementally.
// gen records the generation the register was last synced to; a
// register two generations stale holds only forgotten history and is
// dropped.
type register struct {
	cur, prev keySet
	n         int
	gen       uint64
}

// sync rolls the register forward to generation g, retiring cur to prev
// on a single-step advance and discarding everything on a larger jump.
// Both reuse the register's sets.
func (r *register) sync(g uint64) {
	switch {
	case r.gen == g:
		return
	case r.gen+1 == g:
		r.cur, r.prev = r.prev, r.cur
		r.n = len(r.prev)
	default:
		clear(r.prev)
		r.n = 0
	}
	clear(r.cur)
	r.gen = g
}

// insert adds key to the current generation.
func (r *register) insert(key uint64) {
	if _, ok := r.cur[key]; ok {
		return
	}
	r.cur[key] = struct{}{}
	if _, ok := r.prev[key]; !ok {
		r.n++
	}
}

// count returns the distinct count over the register's window at
// generation g.
func (r *register) count(g uint64) int {
	switch {
	case r == nil:
		return 0
	case r.gen == g:
		return r.n
	case r.gen+1 == g:
		// Not yet synced this generation: cur is one window old and
		// still inside the horizon; prev has aged out.
		return len(r.cur)
	default:
		return 0
	}
}

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
	r := &register{cur: make(keySet), prev: make(keySet), gen: g}
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

// addSketch is the admission path: insert the destination host into the
// port's register and the destination port into the host's register,
// then compare the windowed distinct counts against the thresholds.
// A generation holds at most BufferSize suspects, so each table's live
// sets hold at most 2 × BufferSize keys however wide the scan.
func (a *Analyzer) addSketch(rec flow.Record) Result {
	port, host := rec.Key.DstPort, rec.Key.Dst
	res := Result{Buffered: true}

	if pr := a.portRegs.lookup(port, a.gen, a.cfg.MaxRegisters); pr != nil {
		pr.insert(sketchKey(host))
		res.NetworkScan = pr.n >= a.cfg.NetworkScanThreshold
	} else {
		a.metrics.SketchOverflows.Inc()
	}
	if hr := a.hostRegs.lookup(host, a.gen, a.cfg.MaxRegisters); hr != nil {
		hr.insert(uint64(port))
		res.HostScan = hr.n >= a.cfg.HostScanThreshold
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
