package analysis

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/trace"
)

// oracle is the reference the engine is held to: a deliberately naive
// restatement of the normal-processing phase (§5.2). It takes one record
// at a time, with no batching and no Bloom tier, and calls nothing from
// eia.Store, netaddr.PrefixTrie, scan.Analyzer or scan.TTLProfile. It
// follows decideVerdict's stage order: a Match gets the TTL second
// opinion; any other verdict is an EIA alert in BI, and in EI goes
// through scan, NNS and TTL before the source is vouched for. NNS is the
// one stage it shares with the engine: the detector's KOR search is
// approximate by design, so an exact search would disagree on purpose
// (internal/nns pins KOR with its own reference test and a v1 golden).
// The suite sets no PromotionFilter, so the oracle has none.
type oracle struct {
	cfg      Config
	detector *nns.Detector

	// sets is the EIA state as a plain map; pending counts the vouches of
	// each promotion candidate.
	sets    map[netaddr.Prefix]eia.PeerAS
	pending map[oracleCandidate]int
	// scans holds exact distinct-target sets, one pair per shard (peer
	// mod shards, the engine's partition); probes counts the probe-like
	// suspects each shard saw.
	scans  []oracleTargets
	probes []int
	// ttl holds one profile per source aggregate; nil when the stage is
	// off.
	ttl map[netaddr.Prefix]oracleTTL

	stats     Stats
	decisions []Decision
	alerts    alertLog
}

// oracleCandidate is a source subnet vouched at a peer that does not
// (yet) expect it.
type oracleCandidate struct {
	peer eia.PeerAS
	pfx  netaddr.Prefix
}

type oracleTargets struct {
	hostsOnPort map[uint16]map[netaddr.Addr]bool
	portsOnHost map[netaddr.Addr]map[uint16]bool
}

type oracleTTL struct {
	expected uint8
	samples  int
}

// runOracle replays stream through a fresh oracle that starts from w's
// EIA state and splits scan evidence over shards the way ParallelEngine
// does. It also returns how many probe-like suspects each shard saw.
func runOracle(cfg Config, w workload, detector *nns.Detector, stream []LabeledRecord, shards int) (outcome, []int) {
	if cfg.Mode == 0 {
		cfg.Mode = ModeEnhanced
	}
	o := &oracle{
		cfg:      cfg,
		detector: detector,
		sets:     make(map[netaddr.Prefix]eia.PeerAS),
		pending:  make(map[oracleCandidate]int),
		scans:    make([]oracleTargets, shards),
		probes:   make([]int, shards),
		stats:    Stats{ByStage: make(map[idmef.Stage]int)},
	}
	// Training aggregates each source to its promotion prefix.
	for _, lr := range w.labeled {
		o.sets[o.promotePrefix(lr.Record.Key.Src)] = lr.Peer
	}
	for _, a := range w.preload {
		o.sets[a.Prefix] = a.Peer
	}
	for i := range o.scans {
		o.scans[i] = oracleTargets{make(map[uint16]map[netaddr.Addr]bool), make(map[netaddr.Addr]map[uint16]bool)}
	}
	if cfg.Mode == ModeEnhanced && cfg.TTL.Tolerance > 0 {
		o.ttl = make(map[netaddr.Prefix]oracleTTL)
	}
	for _, lr := range stream {
		o.process(lr.Peer, lr.Record)
	}
	return outcome{stats: o.stats, alerts: o.alerts.byPeer, eia: o.eiaRows(), decisions: o.decisions}, o.probes
}

func (o *oracle) process(peer eia.PeerAS, rec flow.Record) {
	d := Decision{Verdict: o.verdict(peer, rec.Key.Src)}
	switch {
	case d.Verdict == eia.Match:
		if o.ttlContradicts(rec) {
			d.Stage = idmef.StageTTL
		}
	case o.cfg.Mode == ModeBasic:
		d.Stage = idmef.StageEIA
	case o.scanTrips(peer, rec):
		d.Stage = idmef.StageScan
	default:
		d.Assessment = o.detector.Assess(rec)
		switch {
		case d.Assessment.Anomalous:
			d.Stage = idmef.StageNNS
		case o.ttlContradicts(rec):
			d.Stage = idmef.StageTTL
		default:
			d.Promoted = o.vouch(peer, rec.Key.Src)
		}
	}
	d.Attack = d.Stage != ""

	o.stats.Processed++
	if d.Verdict != eia.Match {
		o.stats.Suspects++
	}
	if d.Attack {
		o.stats.Attacks++
		o.stats.ByStage[d.Stage]++
		o.alerts.sink(idmef.NewAlert("", time.Time{}, d.Stage, int(peer), "", rec.Key, d.Assessment.Distance))
	}
	if d.Promoted {
		o.stats.Promotions++
	}
	o.decisions = append(o.decisions, d)
}

// verdict is the EIA check done the slow way: mask the source at every
// length from its family's full width down to /0 and take the first
// prefix present, which is the longest match.
func (o *oracle) verdict(peer eia.PeerAS, src netaddr.Addr) eia.Verdict {
	for bits := src.BitLen(); bits >= 0; bits-- {
		if owner, ok := o.sets[netaddr.MustPrefix(src, bits)]; ok {
			if owner == peer {
				return eia.Match
			}
			return eia.WrongPeer
		}
	}
	return eia.Unknown
}

// scanTrips counts a probe-like suspect (at most two packets) into its
// shard's distinct-host and distinct-port sets and reports whether
// either set reached its threshold.
func (o *oracle) scanTrips(peer eia.PeerAS, rec flow.Record) bool {
	if rec.Packets > 2 {
		return false
	}
	shard := int(peer) % len(o.scans)
	o.probes[shard]++
	s, k := o.scans[shard], rec.Key
	hosts := addTo(s.hostsOnPort, k.DstPort, k.Dst)
	ports := addTo(s.portsOnHost, k.Dst, k.DstPort)
	return hosts >= orDefault(o.cfg.Scan.NetworkScanThreshold, scan.DefaultNetworkScanThreshold) ||
		ports >= orDefault(o.cfg.Scan.HostScanThreshold, scan.DefaultHostScanThreshold)
}

// ttlContradicts is the TTL second opinion over a plain table of source
// aggregates. Once an aggregate has MinSamples observations, a TTL more
// than Tolerance hops from its learned value is a spoof and is not
// learned; every other TTL folds in by keeping the maximum. The table
// never reaches MaxSources here, so the oracle has no cap.
func (o *oracle) ttlContradicts(rec flow.Record) bool {
	if o.ttl == nil || rec.TTL == 0 {
		return false
	}
	c := o.cfg.TTL
	bits := orDefault(c.PrefixLen4, scan.DefaultTTLPrefixLen4)
	if rec.Key.Src.Is6() {
		bits = orDefault(c.PrefixLen6, scan.DefaultTTLPrefixLen6)
	}
	key := netaddr.MustPrefix(rec.Key.Src, bits)
	p := o.ttl[key]
	off := int(rec.TTL) - int(p.expected)
	if p.samples >= orDefault(c.MinSamples, scan.DefaultTTLMinSamples) && max(off, -off) > c.Tolerance {
		return true
	}
	o.ttl[key] = oracleTTL{expected: max(p.expected, rec.TTL), samples: p.samples + 1}
	return false
}

// vouch counts a source that passed every stage toward promoting its /24
// (or /48) at peer, and promotes it once the count reaches the
// threshold.
func (o *oracle) vouch(peer eia.PeerAS, src netaddr.Addr) bool {
	k := oracleCandidate{peer, o.promotePrefix(src)}
	o.pending[k]++
	if o.pending[k] < orDefault(o.cfg.EIA.PromoteThreshold, eia.DefaultPromoteThreshold) {
		return false
	}
	delete(o.pending, k)
	o.sets[k.pfx] = peer
	return true
}

func (o *oracle) promotePrefix(src netaddr.Addr) netaddr.Prefix {
	if src.Is6() {
		return netaddr.MustPrefix(src, orDefault(o.cfg.EIA.PromoteMaskBitsV6, eia.DefaultPromoteMaskBitsV6))
	}
	return netaddr.MustPrefix(src, orDefault(o.cfg.EIA.PromoteMaskBits, eia.DefaultPromoteMaskBits))
}

// eiaRows renders the sets the way Set.WriteCheckpoint does: the v2
// header, then "<peer> <family> <cidr>" rows sorted by peer, then
// address, then length.
func (o *oracle) eiaRows() []byte {
	pfxs := make([]netaddr.Prefix, 0, len(o.sets))
	for p := range o.sets {
		pfxs = append(pfxs, p)
	}
	slices.SortFunc(pfxs, func(a, b netaddr.Prefix) int {
		return cmp.Or(cmp.Compare(o.sets[a], o.sets[b]), a.Addr().Compare(b.Addr()), cmp.Compare(a.Bits(), b.Bits()))
	})
	rows := []byte("# infilter-eia-checkpoint v2\n")
	for _, p := range pfxs {
		rows = fmt.Appendf(rows, "%d %s %s\n", o.sets[p], p.Family(), p)
	}
	return rows
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// addTo adds v to the set at m[k] and returns that set's size.
func addTo[K, V comparable](m map[K]map[V]bool, k K, v V) int {
	if m[k] == nil {
		m[k] = make(map[V]bool)
	}
	m[k][v] = true
	return len(m[k])
}

// workload is the suite's deterministic dual-stack multi-ingress replay:
// labeled training traffic (the NNS training set and the EIA training
// sources), an EIA preload applied on top of training, and one stream
// per peer.
type workload struct {
	cfg     Config
	labeled []LabeledRecord
	preload []preloadRow
	streams map[eia.PeerAS][]flow.Record
}

const workloadPeers = 4

// preloadRow is one EIA preload row: a prefix and the peer it is
// expected at.
type preloadRow struct {
	Peer   eia.PeerAS
	Prefix netaddr.Prefix
}

// set builds the EIA set an engine starts from: the trained sets, as
// Train builds them, then the preload.
func (w workload) set(cfg Config) *eia.Set {
	set := freshTrainedSet(cfg, w.labeled)
	for _, a := range w.preload {
		set.AddPrefix(a.Peer, a.Prefix)
	}
	return set
}

// buildWorkload gives every peer an address plan in which the sources it
// can promote, and so its TTL aggregates, lie where no other peer's flows
// do: sharded runs are then deterministic although promotions and TTL
// profiles are engine-wide. Peer p owns 20+p.0.0.0/8 and
// 2001:db8:p000::/36 and is trained on a /22 and a /48 inside them. Its
// stream interleaves
//   - expected flows (Match) whose TTLs jitter within tolerance, ending
//     in an in-prefix spoof per family at another hop distance;
//   - benign suspects from an unowned /24 and /48 (Unknown), vouched
//     until they promote mid-run;
//   - exploit flows from a source in the next peer's blocks (WrongPeer)
//     for the NNS stage;
//   - a 12-host network scan on the peer's own port and hosts, each probe
//     from its own spoofed /24 so no vouch count reaches a promotion;
//   - a benign suspect in the next peer's block that vouches three times,
//     is denied at the TTL stage, then promotes on its fourth clean
//     vouch.
//
// The preload adds random prefixes nested inside the blocks, each owned
// by a random peer.
func buildWorkload(t *testing.T) workload {
	t.Helper()
	w := workload{
		cfg: Config{
			Mode: ModeEnhanced,
			EIA:  eia.Config{PromoteThreshold: 4},
			TTL:  scan.TTLConfig{Tolerance: 2},
		},
		streams: make(map[eia.PeerAS][]flow.Record),
	}
	var blocks, blocks6 []netaddr.Prefix
	for p := 1; p <= workloadPeers; p++ {
		peer := eia.PeerAS(p)
		next := p%workloadPeers + 1
		block := netaddr.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", 20+p))
		block6 := netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x000::/36", p))
		blocks, blocks6 = append(blocks, block), append(blocks6, block6)
		w.preload = append(w.preload, preloadRow{Peer: peer, Prefix: block}, preloadRow{Peer: peer, Prefix: block6})

		trainPfx := netaddr.MustParsePrefix(fmt.Sprintf("%d.1.0.0/22", 20+p))
		trainPfx6 := netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x001::/48", p))
		train := flowsFromPackets(t, int64(p), 250, trainPfx)
		train6 := asV6(flowsFromPackets(t, int64(50+p), 40, trainPfx), trainPfx6)
		for _, r := range slices.Concat(train, train6) {
			w.labeled = append(w.labeled, LabeledRecord{Peer: peer, Record: r})
		}

		expected := honest(flowsFromPackets(t, int64(100+p), 40, trainPfx))
		expected6 := honest(asV6(flowsFromPackets(t, int64(150+p), 16, trainPfx), trainPfx6))
		// The first expected source again, two hops below its profile,
		// then a spoof three hops below: past the tolerance of the
		// learned maximum, though within it of the last TTL seen.
		for _, seg := range []*[]flow.Record{&expected, &expected6} {
			r := (*seg)[0]
			*seg = append(*seg, withTTL(r, hopTTL(r.Key.Src)-2), withTTL(r, hopTTL(r.Key.Src)-3))
		}

		suspectPfx := netaddr.MustParsePrefix(fmt.Sprintf("%d.77.4.0/24", 120+p))
		suspectPfx6 := netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:f00%x::/48", p))
		suspects := honest(flowsFromPackets(t, int64(200+p), 30, suspectPfx))
		suspects6 := honest(asV6(flowsFromPackets(t, int64(250+p), 15, suspectPfx), suspectPfx6))

		exploit := attackFlowRecords(t, trace.AttackHTTPExploit, int64(300+p), fmt.Sprintf("%d.%d.9.9", 20+next, 100+p))
		exploit6 := honest(asV6(exploit, netaddr.MustParsePrefix(fmt.Sprintf("2001:db8:%x1%02x::/48", next, p))))
		honest(exploit)

		probes := make([]flow.Record, 12)
		for i := range probes {
			probes[i] = flow.Record{
				Key: flow.Key{
					Src:     netaddr.AddrFrom4(byte(200+p), byte(i+1), 9, 9),
					Dst:     netaddr.AddrFrom4(192, 0, byte(10+p), byte(i+1)),
					Proto:   flow.ProtoUDP,
					SrcPort: uint16(40000 + i),
					DstPort: uint16(1434 + p),
					InputIf: 1,
				},
				Packets: 1, Bytes: 404, Start: start, End: start, TTL: 50,
			}
		}

		// A training flow (normal to NNS, too long to count as a probe)
		// re-sourced into the next peer's block.
		vouched := train[slices.IndexFunc(train, func(r flow.Record) bool { return r.Packets > 2 })]
		vouched.Key.Src = netaddr.AddrFrom4(byte(20+next), byte(150+p), 4, 10)
		// The denied TTL is three hops from the maximum but two from the
		// last TTL seen.
		ttlVouch := []flow.Record{withTTL(vouched, 60), withTTL(vouched, 58), withTTL(vouched, 59),
			withTTL(vouched, 57), withTTL(vouched, 60)}

		w.streams[peer] = interleave(expected, expected6, suspects, suspects6, exploit, exploit6, probes, ttlVouch)
	}
	rng := rand.New(rand.NewSource(42))
	w.preload = append(w.preload, nestedPrefixes(rng, 48, blocks, 24)...)
	w.preload = append(w.preload, nestedPrefixes(rng, 16, blocks6, 56)...)
	return w
}

// hopTTL is a source's arrival TTL on its shortest path: 57–60 by the
// third octet in v4, 58 in v6.
func hopTTL(src netaddr.Addr) uint8 {
	if v4, ok := src.V4(); ok {
		return 60 - uint8(v4>>8)%4
	}
	return 58
}

// honest stamps each record with its source's arrival TTL, jittered by
// up to two hops (inside the tolerance) so that the learned profile is
// the maximum, not whichever TTL came last.
func honest(recs []flow.Record) []flow.Record {
	for i := range recs {
		recs[i].TTL = hopTTL(recs[i].Key.Src) - uint8(i%3)
	}
	return recs
}

func withTTL(r flow.Record, ttl uint8) flow.Record {
	r.TTL = ttl
	return r
}

// interleave merges segments round-robin, keeping each one's order.
func interleave(segs ...[]flow.Record) []flow.Record {
	var out []flow.Record
	for i := 0; ; i++ {
		n := len(out)
		for _, s := range segs {
			if i < len(s) {
				out = append(out, s[i])
			}
		}
		if len(out) == n {
			return out
		}
	}
}

// nestedPrefixes draws n prefixes inside blocks, each longer than its
// block and at most maxBits long, owned by random peers. Every other one
// nests inside the prefix drawn just before it, so a lookup often has
// several matches to choose the longest of.
func nestedPrefixes(rng *rand.Rand, n int, blocks []netaddr.Prefix, maxBits int) []preloadRow {
	out := make([]preloadRow, 0, n)
	var prev netaddr.Prefix
	for i := 0; i < n; i++ {
		parent := blocks[rng.Intn(len(blocks))]
		if i%2 == 1 && prev.Bits() < maxBits {
			parent = prev
		}
		bits := parent.Bits() + 1 + rng.Intn(maxBits-parent.Bits())
		prev = netaddr.MustPrefix(randomIn(rng, parent), bits)
		out = append(out, preloadRow{Peer: eia.PeerAS(1 + rng.Intn(workloadPeers)), Prefix: prev})
	}
	return out
}

// randomIn draws a uniformly random address inside p.
func randomIn(rng *rand.Rand, p netaddr.Prefix) netaddr.Addr {
	b := p.Addr().As16()
	for i := 128 - p.Addr().BitLen() + p.Bits(); i < 128; i++ {
		if rng.Intn(2) == 1 {
			b[i/8] |= 0x80 >> (i % 8)
		}
	}
	if p.Addr().Is4() {
		return netaddr.AddrFrom4(b[12], b[13], b[14], b[15])
	}
	return netaddr.AddrFrom16(b)
}

// mixedStream flattens the per-peer streams into one global mixed-peer
// order: rounds over the peers, each contributing a burst whose length
// varies from 1 to 90 records, so the order has same-peer runs of every
// width and each peer's own order is preserved.
func mixedStream(w workload) []LabeledRecord {
	var out []LabeledRecord
	next := make(map[eia.PeerAS]int)
	for round := 0; ; round++ {
		any := false
		for p := 1; p <= workloadPeers; p++ {
			peer := eia.PeerAS(p)
			stream := w.streams[peer]
			burst := 1 + (round*37+p*11)%90
			for ; burst > 0 && next[peer] < len(stream); burst-- {
				out = append(out, LabeledRecord{Peer: peer, Record: stream[next[peer]]})
				next[peer]++
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// batchSizes are the batch widths the suite pins: degenerate
// single-record batches, a typical datagram's worth, and batches wide
// enough to span EIA promotions mid-batch, which forces the tail
// re-check path.
var batchSizes = []int{1, 16, 256}

// forEachRun is how a mixed-peer stream reaches the single-peer batch
// entry points: it cuts stream into chunks of at most size records (what
// one ingest batch would carry) and hands fn every maximal same-peer run
// inside each chunk, in stream order.
func forEachRun(stream []LabeledRecord, size int, fn func(peer eia.PeerAS, recs []flow.Record)) {
	var recs []flow.Record
	for off := 0; off < len(stream); off += size {
		chunk := stream[off:min(off+size, len(stream))]
		for i := 0; i < len(chunk); {
			peer := chunk[i].Peer
			recs = recs[:0]
			for ; i < len(chunk) && chunk[i].Peer == peer; i++ {
				recs = append(recs, chunk[i].Record)
			}
			fn(peer, recs)
		}
	}
}

// midRunPromotions counts the promotions that land with records of the
// same run still unconsumed — the case that forces the batch loop to
// re-classify its tail against the new snapshot.
func midRunPromotions(stream []LabeledRecord, decisions []Decision, size int) int {
	n, i := 0, 0
	forEachRun(stream, size, func(_ eia.PeerAS, recs []flow.Record) {
		for j := range recs {
			if decisions[i+j].Promoted && j+1 < len(recs) {
				n++
			}
		}
		i += len(recs)
	})
	return n
}

// alertLog records, per peer, the byte stream of alerts an engine raised:
// stage, endpoints and NNS distance of every flagged flow in emission
// order. One peer's flows stay on one shard in FIFO order, so its stream
// is deterministic at any shard count (the global message id is not, and
// is left out).
type alertLog struct {
	mu     sync.Mutex
	byPeer map[eia.PeerAS][]byte
}

func (l *alertLog) sink(a idmef.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byPeer == nil {
		l.byPeer = make(map[eia.PeerAS][]byte)
	}
	peer := eia.PeerAS(a.Assessment.PeerAS)
	l.byPeer[peer] = fmt.Appendf(l.byPeer[peer], "%s %s:%d>%s:%d d=%d\n", a.Assessment.Stage,
		a.Source.Address, a.Source.Port, a.Target.Address, a.Target.Port, a.Assessment.Distance)
}

// outcome is everything observable about a replay: merged counters, the
// per-peer alert streams, the EIA end-state and, for a serial Engine or
// the oracle, the per-record decision stream (nil for a ParallelEngine,
// whose workers hand back no decisions).
type outcome struct {
	stats     Stats
	alerts    map[eia.PeerAS][]byte
	eia       []byte
	decisions []Decision
}

func outcomeOf(t *testing.T, e interface {
	Stats() Stats
	EIASet() *eia.Store
}, log *alertLog) outcome {
	t.Helper()
	var eiaState bytes.Buffer
	if err := e.EIASet().Snapshot().WriteCheckpoint(&eiaState); err != nil {
		t.Fatal(err)
	}
	return outcome{stats: e.Stats(), alerts: log.byPeer, eia: eiaState.Bytes()}
}

// requireSameOutcome fails unless got reproduces want byte for byte and,
// when got carries decisions, decision for decision.
func requireSameOutcome(t *testing.T, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("stats = %+v, oracle = %+v", got.stats, want.stats)
	}
	for p := 1; p <= workloadPeers; p++ {
		if g, w := got.alerts[eia.PeerAS(p)], want.alerts[eia.PeerAS(p)]; !bytes.Equal(g, w) {
			t.Errorf("peer %d alert stream differs from the oracle's:\ngot:\n%s\nwant:\n%s", p, g, w)
			break
		}
	}
	if !bytes.Equal(got.eia, want.eia) {
		t.Errorf("EIA end-state differs from the oracle's:\ngot:\n%s\nwant:\n%s", got.eia, want.eia)
	}
	if got.decisions == nil {
		return
	}
	if len(got.decisions) != len(want.decisions) {
		t.Fatalf("%d decisions, oracle has %d", len(got.decisions), len(want.decisions))
	}
	for i := range got.decisions {
		if got.decisions[i] != want.decisions[i] {
			t.Fatalf("record %d: decision %+v, oracle %+v", i, got.decisions[i], want.decisions[i])
		}
	}
}

// mustDetector trains the shared read-only NNS detector once per test
// (it is safe to share across engines; only the EIA set mutates).
func mustDetector(t *testing.T, w workload) *nns.Detector {
	t.Helper()
	_, detector, err := trainComponents(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	return detector
}

// runEngine replays stream through a fresh serial Engine's batch loop,
// as same-peer runs of at most size records, collecting every record's
// Decision.
func runEngine(t *testing.T, cfg Config, w workload, detector *nns.Detector, stream []LabeledRecord, size int) outcome {
	t.Helper()
	eng, err := NewEngine(cfg, w.set(cfg), detector)
	if err != nil {
		t.Fatal(err)
	}
	var log alertLog
	eng.SetAlertSink(log.sink)
	decisions := make([]Decision, len(stream))
	n := 0
	forEachRun(stream, size, func(peer eia.PeerAS, recs []flow.Record) {
		eng.ProcessBatch(peer, recs, decisions[n:n+len(recs)])
		n += len(recs)
	})
	o := outcomeOf(t, eng, &log)
	o.decisions = decisions
	return o
}

// runParallel feeds a fresh ParallelEngine through feed, drains it and
// returns what it did.
func runParallel(t *testing.T, cfg Config, w workload, detector *nns.Detector, shards int, feed func(*ParallelEngine)) outcome {
	t.Helper()
	pe, err := NewParallelEngine(ParallelConfig{Config: cfg, Shards: shards, QueueDepth: 16}, w.set(cfg), detector)
	if err != nil {
		t.Fatal(err)
	}
	var log alertLog
	pe.SetAlertSink(log.sink)
	feed(pe)
	pe.Flush()
	got := outcomeOf(t, pe, &log)
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// runMixedStream replays stream from one goroutine as same-peer runs of
// at most size records.
func runMixedStream(t *testing.T, cfg Config, w workload, detector *nns.Detector, stream []LabeledRecord, shards, size int) outcome {
	t.Helper()
	return runParallel(t, cfg, w, detector, shards, func(pe *ParallelEngine) {
		forEachRun(stream, size, func(peer eia.PeerAS, recs []flow.Record) {
			if err := pe.SubmitBatch(peer, recs); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// runPerPeerStreams replays the workload with one submitting goroutine
// per peer, each cutting its own stream into batches of at most size
// records.
func runPerPeerStreams(t *testing.T, cfg Config, w workload, detector *nns.Detector, shards, size int) outcome {
	t.Helper()
	return runParallel(t, cfg, w, detector, shards, func(pe *ParallelEngine) {
		var wg sync.WaitGroup
		for p := 1; p <= workloadPeers; p++ {
			wg.Add(1)
			go func(peer eia.PeerAS) {
				defer wg.Done()
				stream := w.streams[peer]
				for off := 0; off < len(stream); off += size {
					if err := pe.SubmitBatch(peer, stream[off:min(off+size, len(stream))]); err != nil {
						t.Errorf("SubmitBatch: %v", err)
						return
					}
				}
			}(eia.PeerAS(p))
		}
		wg.Wait()
	})
}

// requireCoverage fails the suite when the stream stops exercising what
// the comparison is for: the tail re-check after a mid-run promotion at
// both wide batch sizes, every suspect stage, the TTL stage on both a
// Match and a suspect, and every verdict in both address families.
func requireCoverage(t *testing.T, stream []LabeledRecord, ref outcome) {
	t.Helper()
	for _, size := range batchSizes[1:] {
		if midRunPromotions(stream, ref.decisions, size) == 0 {
			t.Errorf("batch=%d: no promotion lands mid-run, so the tail re-check is not exercised", size)
		}
	}
	for _, stage := range []idmef.Stage{idmef.StageScan, idmef.StageNNS, idmef.StageTTL} {
		if ref.stats.ByStage[stage] == 0 {
			t.Errorf("the %s stage never fires", stage)
		}
	}
	type seen struct {
		fam netaddr.Family
		v   eia.Verdict
	}
	verdicts := make(map[seen]int)
	ttlOnMatch, ttlOnSuspect := 0, 0
	for i, d := range ref.decisions {
		verdicts[seen{stream[i].Record.Key.Src.Family(), d.Verdict}]++
		switch {
		case d.Stage != idmef.StageTTL:
		case d.Verdict == eia.Match:
			ttlOnMatch++
		default:
			ttlOnSuspect++
		}
	}
	if ttlOnMatch == 0 || ttlOnSuspect == 0 {
		t.Errorf("TTL stage fired on %d Matches and %d suspects, want both", ttlOnMatch, ttlOnSuspect)
	}
	for _, fam := range []netaddr.Family{netaddr.FamilyV4, netaddr.FamilyV6} {
		for _, v := range []eia.Verdict{eia.Match, eia.WrongPeer, eia.Unknown} {
			if verdicts[seen{fam, v}] == 0 {
				t.Errorf("no %v verdict for a v%v source", v, fam)
			}
		}
	}
}

// TestEngineMatchesOracle holds the engine to the oracle over the whole
// grid: the Bloom tier off, saturated at 1 bit per entry and at the
// daemon's 10; batch widths 1, 16 and 256; the serial Engine and a
// ParallelEngine at 1 and 3 shards, fed the stream as maximal same-peer
// runs from one goroutine. Stats, per-peer alert bytes and the EIA end
// state must match, and on the serial engine every record's Decision.
// One arm submits each peer's stream from its own goroutine, one shard
// per peer (under -race the data-race gate for the shared store and TTL
// table), and one row runs BI.
func TestEngineMatchesOracle(t *testing.T) {
	w := buildWorkload(t)
	stream := mixedStream(w)
	detector := mustDetector(t, w)
	oracles := make(map[int]outcome)
	for _, shards := range []int{1, 3, workloadPeers} {
		o, probes := runOracle(w.cfg, w, detector, stream, shards)
		// Past one window the analyzer's registers rotate and forget,
		// and the oracle's unwindowed sets stop being its reference.
		if n := slices.Max(probes); n >= scan.DefaultBufferSize {
			t.Fatalf("shards=%d: a shard sees %d probe-like suspects, want fewer than %d", shards, n, scan.DefaultBufferSize)
		}
		oracles[shards] = o
	}
	if requireCoverage(t, stream, oracles[1]); t.Failed() {
		return
	}

	for _, bits := range []int{0, 1, 10} {
		cfg := w.cfg
		cfg.EIA.BloomBitsPerEntry = bits
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("bits=%d/batch=%d/serial", bits, size), func(t *testing.T) {
				requireSameOutcome(t, runEngine(t, cfg, w, detector, stream, size), oracles[1])
			})
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("bits=%d/batch=%d/shards=%d", bits, size, shards), func(t *testing.T) {
					requireSameOutcome(t, runMixedStream(t, cfg, w, detector, stream, shards, size), oracles[shards])
				})
			}
		}
	}
	t.Run(fmt.Sprintf("concurrent/bits=10/batch=16/shards=%d", workloadPeers), func(t *testing.T) {
		cfg := w.cfg
		cfg.EIA.BloomBitsPerEntry = 10
		requireSameOutcome(t, runPerPeerStreams(t, cfg, w, detector, workloadPeers, 16), oracles[workloadPeers])
	})
	t.Run("BI/bits=10/batch=16/serial", func(t *testing.T) {
		cfg := w.cfg
		cfg.Mode = ModeBasic
		cfg.EIA.BloomBitsPerEntry = 10
		want, _ := runOracle(cfg, w, nil, stream, 1)
		requireSameOutcome(t, runEngine(t, cfg, w, nil, stream, 16), want)
	})
}

// TestScanEvidenceIsPerShard pins the gap ROADMAP item 1 describes: scan
// evidence lives in one analyzer per shard, so a scan whose probes enter
// through several peers is seen whole only when those peers share a
// shard. Twelve probes of one port go round-robin through peers 1, 2 and
// 3: at one shard the tenth distinct host trips the scan stage, at three
// shards each analyzer holds four hosts and nothing trips. The oracle,
// partitioned the same way, agrees in both cases.
func TestScanEvidenceIsPerShard(t *testing.T) {
	w := workload{cfg: Config{Mode: ModeEnhanced}}
	for _, r := range flowsFromPackets(t, 1, 250, peer1Pfx) {
		w.labeled = append(w.labeled, LabeledRecord{Peer: 1, Record: r})
	}
	detector := mustDetector(t, w)
	var stream []LabeledRecord
	for i := 0; i < 12; i++ {
		stream = append(stream, LabeledRecord{Peer: eia.PeerAS(1 + i%3), Record: flow.Record{
			Key: flow.Key{
				Src:     netaddr.MustParseAddr("198.51.100.17"),
				Dst:     netaddr.AddrFrom4(192, 0, 9, byte(i+1)),
				Proto:   flow.ProtoUDP,
				SrcPort: uint16(40000 + i),
				DstPort: 1434,
			},
			Packets: 1, Bytes: 404, Start: start, End: start,
		}})
	}
	for _, tc := range []struct {
		shards int
		trips  bool
	}{{1, true}, {3, false}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			got := runParallel(t, w.cfg, w, detector, tc.shards, func(pe *ParallelEngine) {
				// Flush after each probe so the cross-shard order is the
				// stream order.
				for _, lr := range stream {
					if err := pe.SubmitBatch(lr.Peer, []flow.Record{lr.Record}); err != nil {
						t.Fatal(err)
					}
					pe.Flush()
				}
			})
			want, _ := runOracle(w.cfg, w, detector, stream, tc.shards)
			requireSameOutcome(t, got, want)
			if trips := got.stats.ByStage[idmef.StageScan] > 0; trips != tc.trips {
				t.Errorf("scan stage tripped: %v, want %v (stats %+v)", trips, tc.trips, got.stats)
			}
		})
	}
}

// TestSketchDivergesOnlyBeyondRingCapacity pins, at the engine level, the
// reason the shipped analyzer counts with windowed registers rather than
// the paper's 200-entry ring: a 400-host scan with a threshold of 300 is
// more than that ring could ever hold, yet with a large BufferSize the
// scan stage trips on it at exactly the 300th distinct host. The oracle's
// guards keep every shard under scan.DefaultBufferSize suspects, so it
// cannot show this.
func TestSketchDivergesOnlyBeyondRingCapacity(t *testing.T) {
	cfg := Config{
		Mode: ModeEnhanced,
		EIA:  eia.Config{PromoteThreshold: 1 << 30},
		Scan: scan.Config{
			NetworkScanThreshold: 300, // beyond the paper's 200-entry ring
			HostScanThreshold:    1 << 30,
			BufferSize:           1 << 30, // no rotation inside the stream
		},
	}
	var labeled []LabeledRecord
	for _, r := range flowsFromPackets(t, 1, 120, netaddr.MustParsePrefix("21.0.0.0/8")) {
		labeled = append(labeled, LabeledRecord{Peer: 1, Record: r})
	}
	probes := make([]flow.Record, 400)
	for i := range probes {
		probes[i] = flow.Record{
			Key: flow.Key{
				Src:     netaddr.MustParseAddr("201.9.9.9"),
				Dst:     netaddr.AddrFrom4(192, 0, byte(2+i/250), byte(1+i%250)),
				Proto:   flow.ProtoUDP,
				SrcPort: uint16(40000 + i),
				DstPort: 1434,
				InputIf: 1,
			},
			Packets: 1, Bytes: 404, Start: start, End: start,
		}
	}
	t.Run("sketch-detects", func(t *testing.T) {
		eng, err := Train(cfg, labeled)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Decision, len(probes))
		eng.ProcessBatch(1, probes, out)
		first := slices.IndexFunc(out, func(d Decision) bool { return d.Stage == idmef.StageScan })
		if first != 299 {
			t.Errorf("scan stage first tripped at probe %d, want 299 (the 300th distinct host)", first)
		}
	})
}
