package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"infilter/internal/blocks"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

// The corpus generator turns (workload, seed, seconds) into everything the
// daemon is fed: the EIA file and, per live peer, the export datagrams in
// send order. It uses only exported pieces of the program (blocks, trace,
// the netflow flow cache and wire encoders), so the program receives
// nothing but generated inputs.

const (
	livePeers = 2

	// benignSources is the benign source pool per live peer; every source
	// sits in its own /24 (or, for v6, one of the peer's /48 sites), and a
	// pool cycle visits each source benignVisits times so one cycle lifts
	// every TTL profile past scan.DefaultTTLMinSamples.
	benignSources = 20000
	benignVisits  = 3

	massPrefixes = 100000 // background /24s and, again, /48s on peers 3-10
	sitesPerPeer = 1000   // /48s per peer in the v6 plan

	// canaryRate is how many spoofed flows per second and peer the paced
	// phase of a benign workload carries, one per datagram: enough alerts
	// for a p99, too few to load the daemon (an alert costs it about as
	// much as a hundred benign records).
	canaryRate = 1000

	eventFlows    = 500 // flows per scan or flood event
	ttlSpoofHops  = 15
	movedRecur    = 80  // flows per moved /24 in route-change
	movedInFlight = 500 // moved /24s interleaved at any moment, per peer
)

var (
	corpusEpoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

	target4  = netaddr.MustParsePrefix("10.0.0.0/8")   // the protected network
	servers4 = netaddr.MustParsePrefix("10.1.0.0/16")  // where benign flows go
	target6  = netaddr.MustParsePrefix("fd00:10::/48") // v6 face of servers4
	mass4    = netaddr.MustParsePrefix("100.0.0.0/7")  // unused by Table 1
	unknown4 = netaddr.MustParsePrefix("176.0.0.0/5")  // in no EIA prefix
)

// alertKey identifies a flow the way an IDMEF alert names it.
type alertKey struct {
	src, dst     netaddr.Addr
	sport, dport uint16
}

func keyOf(k flow.Key) alertKey {
	return alertKey{src: k.Src, dst: k.Dst, sport: k.SrcPort, dport: k.DstPort}
}

type phase int

const (
	phaseWarmup phase = iota
	phaseSaturate
	phasePaced
	numPhases
)

func (p phase) String() string { return [...]string{"warmup", "saturate", "paced"}[p] }

// datagram is one encoded export datagram; recs is 0 for a template message.
type datagram struct {
	raw  []byte
	recs int
}

// peerStream is what one live peer's exporter sends: a pool of encoded
// datagrams and, per phase, the pool indices in send order. Benign pools
// cycle, so an index may repeat; the sender stamps sequence numbers.
type peerStream struct {
	peer  eia.PeerAS
	pool  []datagram
	sched [numPhases][]int32
}

func (s *peerStream) records(p phase) int {
	n := 0
	for _, i := range s.sched[p] {
		n += s.pool[i].recs
	}
	return n
}

type corpus struct {
	spec    *workloadSpec
	eiaText []byte
	streams [livePeers]peerStream
	// events maps every injected malicious flow to its event; an event
	// (one scan campaign, one flood burst, one ttl-spoof flow) counts as
	// detected when at least one of its flows is alerted on.
	events map[alertKey]int32
	hash   string
}

func (c *corpus) records(p phase) int {
	return c.streams[0].records(p) + c.streams[1].records(p)
}

// maxDatagram is the size of the largest datagram of the corpus.
func (c *corpus) maxDatagram() int {
	n := 0
	for i := range c.streams {
		for _, d := range c.streams[i].pool {
			n = max(n, len(d.raw))
		}
	}
	return n
}

// patchSeq stamps the export sequence number (records exported before this
// datagram, for both v5 and IPFIX) into an encoded datagram's header.
func patchSeq(raw []byte, seq uint32) {
	off := 8 // IPFIX
	if binary.BigEndian.Uint16(raw) == netflow.VersionV5 {
		off = 16
	}
	binary.BigEndian.PutUint32(raw[off:], seq)
}

// cursor walks a peer stream in send order keeping the sequence number.
type cursor struct {
	s   *peerStream
	seq uint32
}

func (c *cursor) next(idx int32) *datagram {
	d := &c.s.pool[idx]
	patchSeq(d.raw, c.seq)
	c.seq += uint32(d.recs)
	return d
}

// addressPlan is the seed's EIA file and the address pools drawn against it.
type addressPlan struct {
	eiaText []byte
	live    [livePeers][]netaddr.Prefix // Table-3 /11s of peers 1 and 2
	other   []netaddr.Prefix            // Table-3 /11s of peers 3-10
	sites   [livePeers][]netaddr.Prefix // /48s of peers 1 and 2
}

func newAddressPlan(seed int64) (*addressPlan, error) {
	p := &addressPlan{}
	var b bytes.Buffer
	add := func(peer int, pfx netaddr.Prefix) {
		fmt.Fprintf(&b, "%d %s\n", peer, pfx)
	}
	for peer := 1; peer <= blocks.DefaultSources; peer++ {
		subs, err := blocks.EIAAllocation(peer)
		if err != nil {
			return nil, err
		}
		for _, sb := range subs {
			add(peer, sb.Prefix())
			if peer <= livePeers {
				p.live[peer-1] = append(p.live[peer-1], sb.Prefix())
			} else {
				p.other = append(p.other, sb.Prefix())
			}
		}
		for k := 0; k < sitesPerPeer; k++ {
			site := site6(uint64(peer)<<12 | uint64(k))
			add(peer, site)
			if peer <= livePeers {
				p.sites[peer-1] = append(p.sites[peer-1], site)
			}
		}
	}
	// The background mass gives the trie and the Bloom filters an
	// ISP-sized footprint. It is homed on the peers that send nothing.
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	for i, slot := range rng.Perm(1 << 17)[:massPrefixes] {
		add(3+i%8, netaddr.MustPrefix(mass4.Nth(uint64(slot)<<8), 24))
	}
	for i, slot := range rng.Perm(1 << 20)[:massPrefixes] {
		add(3+i%8, mass6(uint64(slot)))
	}
	p.eiaText = b.Bytes()
	return p, nil
}

// site6 is the n-th /48 of the documentation /32; peers' sites use
// n = peer<<12 | k, and n >= 0xf000 is left unallocated for spoofing.
func site6(n uint64) netaddr.Prefix {
	var a [16]byte
	copy(a[:], []byte{0x20, 0x01, 0x0d, 0xb8, byte(n >> 8), byte(n)})
	return netaddr.MustPrefix(netaddr.AddrFrom16(a), 48)
}

func mass6(n uint64) netaddr.Prefix {
	var a [16]byte
	copy(a[:], []byte{0x24, byte(n >> 16), byte(n >> 8), byte(n), 0x00, 0x01})
	return netaddr.MustPrefix(netaddr.AddrFrom16(a), 48)
}

// shapes are the flow statistics the corpus stamps addresses onto: benign
// flows as trace.GenerateNormal makes them, and one template per attack.
type shapes struct {
	benign                      []flow.Record
	slammer, idlescan, synflood flow.Record
}

func flowsOf(pkts []packet.Packet) []flow.Record {
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 0)
	}
	cache.FlushAll()
	return cache.Drain()
}

func newShapes(seed int64) (*shapes, error) {
	placeholder := netaddr.MustParsePrefix("198.18.0.0/15")
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: seed, Start: corpusEpoch, Flows: 4000,
		SrcPrefixes: []netaddr.Prefix{placeholder}, DstPrefix: servers4,
	})
	if err != nil {
		return nil, err
	}
	s := &shapes{benign: flowsOf(pkts)}
	for _, a := range []struct {
		t   trace.AttackType
		dst *flow.Record
	}{{trace.AttackSlammer, &s.slammer}, {trace.AttackIdlescan, &s.idlescan}, {trace.AttackSYNFlood, &s.synflood}} {
		pkts, err := trace.Generate(a.t, trace.AttackConfig{
			Seed: seed, Start: corpusEpoch, Src: placeholder.Nth(1), DstPrefix: servers4,
		})
		if err != nil {
			return nil, err
		}
		*a.dst = flowsOf(pkts)[0]
	}
	return s, nil
}

// composer builds one live peer's flow records. Everything it draws is
// disjoint from the other peer's draws, so the order in which the daemon's
// two shards interleave cannot change a verdict.
type composer struct {
	spec   *workloadSpec
	plan   *addressPlan
	shapes *shapes
	idx    int // 0 or 1; the peer AS is idx+1
	rng    *rand.Rand

	src4 []netaddr.Addr
	ttl4 []uint8
	src6 []netaddr.Addr
	ttl6 []uint8

	clock      int64  // milliseconds after corpusEpoch
	pos4, pos6 int    // benign flows drawn so far, per family
	spoofN     uint64 // spoofed sources drawn so far
	freshDst   uint64 // ever-new scan destinations drawn so far
	sportN     uint32
	eventN     int32
	events     map[alertKey]int32

	slammerLeft, idleLeft, floodLeft    int
	slammerEvent, idleEvent, floodEvent int32
	idleVictim, floodVictim             netaddr.Addr
	idlePort                            int

	moved     []movedPrefix // route-change: the /24s in flight
	movedN    uint64
	movedNext int
}

type movedPrefix struct {
	pfx  netaddr.Prefix
	ttl  uint8
	seen int
}

func newComposer(spec *workloadSpec, plan *addressPlan, sh *shapes, seed int64, idx int) *composer {
	c := &composer{
		spec: spec, plan: plan, shapes: sh, idx: idx,
		rng:    rand.New(rand.NewSource(seed*7919 + 100 + int64(idx))),
		events: make(map[alertKey]int32),
	}
	n4, n6 := benignSources, 0
	if spec.Dual {
		n4, n6 = benignSources/2, benignSources/2
	}
	live := plan.live[idx]
	for j := 0; j < n4; j++ {
		// One /24 per source: 37 is odd, so j/len(live)*37 mod 8192 does
		// not repeat within a /11's 8192 /24s.
		sub := uint64(j/len(live)*37) % 8192
		c.src4 = append(c.src4, live[j%len(live)].Nth(sub<<8|uint64(1+c.rng.Intn(250))))
		c.ttl4 = append(c.ttl4, uint8(40+c.rng.Intn(20)))
	}
	siteTTL := make([]uint8, sitesPerPeer)
	for k := range siteTTL {
		siteTTL[k] = uint8(40 + c.rng.Intn(20))
	}
	for j := 0; j < n6; j++ {
		k := j % sitesPerPeer
		c.src6 = append(c.src6, plan.sites[idx][k].Nth(c.rng.Uint64()))
		c.ttl6 = append(c.ttl6, siteTTL[k])
	}
	return c
}

func (c *composer) peer() eia.PeerAS { return eia.PeerAS(c.idx + 1) }

// stamp finishes a record: arrival interface, times one millisecond after
// the previous record, and the TTL (which a v5 datagram has no field for).
func (c *composer) stamp(r flow.Record, ttl uint8) flow.Record {
	dur := r.End.Sub(r.Start)
	c.clock++
	r.Start = corpusEpoch.Add(time.Duration(c.clock) * time.Millisecond)
	r.End = r.Start.Add(dur)
	r.Key.InputIf = uint16(c.peer())
	r.TTL = ttl
	return r
}

// benign returns the next benign flow; v6 selects the family on a dual
// workload. Sources go round-robin, shapes on a co-prime stride.
func (c *composer) benign(v6 bool) flow.Record {
	if v6 {
		pos := c.pos6
		c.pos6++
		r := c.shapes.benign[pos*7%len(c.shapes.benign)]
		v4, _ := r.Key.Dst.V4()
		r.Key.Src = c.src6[pos%len(c.src6)]
		r.Key.Dst = target6.Nth(uint64(v4) & 0xffff)
		return c.stamp(r, c.ttl6[pos%len(c.ttl6)])
	}
	pos := c.pos4
	c.pos4++
	r := c.shapes.benign[pos*7%len(c.shapes.benign)]
	r.Key.Src = c.src4[pos%len(c.src4)]
	return c.stamp(r, c.ttl4[pos%len(c.ttl4)])
}

// spoofed draws a never-repeating spoofed source: alternately inside
// another peer's /11 (EIA verdict WrongPeer) and in unallocated space
// (Unknown). Odd multipliers modulo a power of two are bijections, and the
// two live peers take the even and the odd draws.
func (c *composer) spoofed() netaddr.Addr {
	n := c.spoofN*livePeers + uint64(c.idx)
	c.spoofN++
	if n/livePeers%2 == 0 {
		blk := c.plan.other[n%uint64(len(c.plan.other))]
		return blk.Nth((n / uint64(len(c.plan.other)) * 2654435761) % blk.Size())
	}
	return unknown4.Nth((n * 2654435761) % unknown4.Size())
}

func (c *composer) sport() uint16 {
	c.sportN++
	return uint16(1024 + c.sportN%60000)
}

func (c *composer) newEvent() int32 {
	id := c.eventN*livePeers + int32(c.idx)
	c.eventN++
	return id
}

func (c *composer) inject(r flow.Record, event int32) flow.Record {
	c.events[keyOf(r.Key)] = event
	return r
}

// freshHost is a destination no earlier flow of this peer used.
func (c *composer) freshHost() netaddr.Addr {
	n := c.freshDst*livePeers + uint64(c.idx)
	c.freshDst++
	return target4.Nth((n*2654435761 + 1<<20) % target4.Size())
}

// slammer: one port, an ever-new destination host per flow.
func (c *composer) slammerFlow() flow.Record {
	if c.slammerLeft == 0 {
		c.slammerLeft, c.slammerEvent = eventFlows, c.newEvent()
	}
	c.slammerLeft--
	r := c.shapes.slammer
	r.Key.Src, r.Key.SrcPort, r.Key.Dst = c.spoofed(), c.sport(), c.freshHost()
	return c.inject(c.stamp(r, uint8(30+c.rng.Intn(30))), c.slammerEvent)
}

// idlescan: one victim host, a new destination port per flow.
func (c *composer) idlescanFlow() flow.Record {
	if c.idleLeft == 0 {
		c.idleLeft, c.idleEvent, c.idleVictim, c.idlePort = eventFlows, c.newEvent(), c.freshHost(), 0
	}
	c.idleLeft--
	c.idlePort++
	r := c.shapes.idlescan
	r.Key.Src, r.Key.SrcPort, r.Key.Dst, r.Key.DstPort = c.spoofed(), c.sport(), c.idleVictim, uint16(c.idlePort)
	return c.inject(c.stamp(r, uint8(30+c.rng.Intn(30))), c.idleEvent)
}

// floodVictims are the few host:ports the SYN flood aims at.
var floodPorts = []uint16{flow.PortHTTP, flow.PortSMTP, 443, 22}

func (c *composer) floodFlow() flow.Record {
	if c.floodLeft == 0 {
		c.floodLeft, c.floodEvent = eventFlows, c.newEvent()
		c.floodVictim = servers4.Nth(uint64(100 + c.rng.Intn(4)))
	}
	c.floodLeft--
	r := c.shapes.synflood
	r.Key.Src, r.Key.SrcPort, r.Key.Dst = c.spoofed(), c.sport(), c.floodVictim
	r.Key.DstPort = floodPorts[int(c.floodEvent/livePeers)%len(floodPorts)]
	return c.inject(c.stamp(r, uint8(30+c.rng.Intn(30))), c.floodEvent)
}

// ttlSpoofFlow is a benign-shaped flow from a benign source of this peer
// that arrives ttlSpoofHops further away than the source's profile says.
func (c *composer) ttlSpoofFlow() flow.Record {
	j := c.rng.Intn(len(c.src4))
	r := c.shapes.benign[c.rng.Intn(len(c.shapes.benign))]
	r.Key.Src, r.Key.SrcPort = c.src4[j], c.sport()
	return c.inject(c.stamp(r, c.ttl4[j]-ttlSpoofHops), c.newEvent())
}

// movedFlow is route-change traffic: benign flows from /24s that another
// peer's EIA set holds, now arriving here. Each /24 sends movedRecur flows
// (the first eia.DefaultPromoteThreshold vouched ones promote it) while
// movedInFlight of them interleave, then retires for a fresh one.
func (c *composer) movedFlow() flow.Record {
	if c.moved == nil {
		c.moved = make([]movedPrefix, movedInFlight)
		for i := range c.moved {
			c.moved[i] = c.newMoved()
			// Stagger the start so promotions arrive steadily from the
			// first record on instead of in a wave.
			c.moved[i].seen = i * movedRecur / movedInFlight
		}
	}
	m := &c.moved[c.movedNext]
	c.movedNext = (c.movedNext + 1) % len(c.moved)
	m.seen++
	r := c.shapes.benign[c.rng.Intn(len(c.shapes.benign))]
	r.Key.Src, r.Key.SrcPort = m.pfx.Nth(uint64(m.seen)), c.sport()
	r = c.stamp(r, m.ttl)
	if m.seen == movedRecur {
		*m = c.newMoved()
	}
	return r
}

func (c *composer) newMoved() movedPrefix {
	n := c.movedN*livePeers + uint64(c.idx)
	c.movedN++
	blk := c.plan.other[n%uint64(len(c.plan.other))]
	sub := (n/uint64(len(c.plan.other))*37 + 11) % 8192
	return movedPrefix{pfx: netaddr.MustPrefix(blk.Nth(sub<<8), 24), ttl: uint8(40 + c.rng.Intn(20))}
}

// share hands out a fixed share of slots evenly (an error-diffusion
// counter), so a workload's suspect share cannot drift or cluster. Every
// slot ticks every share; a share that is owed a slot another took keeps
// its claim for the next one.
type share struct {
	rate, acc float64
	owed      int
}

func (s *share) tick() {
	s.acc += s.rate
	if s.acc >= 1 {
		s.acc--
		s.owed++
	}
}

func (s *share) take() bool {
	if s.owed == 0 {
		return false
	}
	s.owed--
	return true
}

// measured returns the next record of the saturate and paced phases.
func (c *composer) measured(suspect, ttlSpoof, idle *share) flow.Record {
	suspect.tick()
	ttlSpoof.tick()
	switch c.spec.Mix {
	case mixRouteChange:
		return c.movedFlow()
	case mixScanStorm:
		if suspect.take() {
			idle.tick()
			if idle.take() {
				return c.idlescanFlow()
			}
			return c.slammerFlow()
		}
	case mixSpoofFlood:
		if suspect.take() {
			return c.floodFlow()
		}
		if ttlSpoof.take() {
			return c.ttlSpoofFlow()
		}
	}
	return c.benign(false)
}

// encoder wraps the two wire encoders behind the one call the corpus needs.
type encoder struct {
	enc netflow.WireEncoder
	out []datagram
}

func newEncoder(w wire) *encoder {
	if w == wireV5 {
		return &encoder{enc: netflow.NewV5Encoder(corpusEpoch.Add(-time.Hour), 1)}
	}
	return &encoder{enc: netflow.NewIPFIXEncoder(1)}
}

// add encodes recs (at most one datagram's worth, one family) and returns
// the pool index of the data datagram; template messages the encoder emits
// first land in the pool just before it.
func (e *encoder) add(recs []flow.Record) int32 {
	for _, wd := range e.enc.Encode(recs, recs[len(recs)-1].End) {
		e.out = append(e.out, datagram{raw: wd.Raw, recs: wd.Flows})
	}
	return int32(len(e.out) - 1)
}

// buildCorpus generates the EIA file and both peers' streams.
func buildCorpus(spec *workloadSpec, seed int64, seconds float64) (*corpus, error) {
	plan, err := newAddressPlan(seed)
	if err != nil {
		return nil, err
	}
	sh, err := newShapes(seed)
	if err != nil {
		return nil, err
	}
	co := &corpus{spec: spec, eiaText: plan.eiaText, events: make(map[alertKey]int32)}
	satPerPeer := spec.saturateRecords(seconds) / livePeers
	pacedPerPeer := spec.pacedRecords(seconds) / livePeers
	for idx := 0; idx < livePeers; idx++ {
		c := newComposer(spec, plan, sh, seed, idx)
		enc := newEncoder(spec.Wire)
		s := &co.streams[idx]
		s.peer = c.peer()

		// The benign pool: one cycle is the warm-up, preceded by whatever
		// template messages the encoder announces.
		var cycle []int32
		buf := make([]flow.Record, 0, netflow.MaxRecords)
		for d := 0; d < benignSources*benignVisits/netflow.MaxRecords; d++ {
			buf = buf[:0]
			for range netflow.MaxRecords {
				buf = append(buf, c.benign(spec.Dual && d%2 == 1))
			}
			cycle = append(cycle, enc.add(buf))
		}
		for i := int32(0); i <= cycle[len(cycle)-1]; i++ {
			s.sched[phaseWarmup] = append(s.sched[phaseWarmup], i)
		}

		if spec.Mix == mixBenign {
			for n, k := 0, 0; n < satPerPeer; n, k = n+netflow.MaxRecords, k+1 {
				s.sched[phaseSaturate] = append(s.sched[phaseSaturate], cycle[k%len(cycle)])
			}
			// Paced: the same pool, plus a sparse train of spoofed flows
			// so that alert latency exists on a benign workload too.
			every := max(2, int(spec.PacedRate/livePeers/netflow.MaxRecords/canaryRate))
			for n, k := 0, 0; n < pacedPerPeer; k++ {
				if k%every == every-1 {
					c.floodLeft = 0 // every canary is its own event
					s.sched[phasePaced] = append(s.sched[phasePaced], enc.add([]flow.Record{c.floodFlow()}))
					n++
					continue
				}
				s.sched[phasePaced] = append(s.sched[phasePaced], cycle[k%len(cycle)])
				n += netflow.MaxRecords
			}
		} else {
			suspect, ttlSpoof, idle := &share{rate: spec.SuspectShare}, &share{rate: spec.TTLSpoofShare}, &share{rate: 0.2}
			for n := 0; n < satPerPeer+pacedPerPeer; n += netflow.MaxRecords {
				buf = buf[:0]
				for range netflow.MaxRecords {
					buf = append(buf, c.measured(suspect, ttlSpoof, idle))
				}
				p := phaseSaturate
				if n >= satPerPeer {
					p = phasePaced
				}
				s.sched[p] = append(s.sched[p], enc.add(buf))
			}
		}
		s.pool = enc.out
		for k, ev := range c.events {
			co.events[k] = ev
		}
	}
	co.hash = co.digest()
	return co, nil
}

// digest hashes everything the daemon will be given, in send order up to
// the sequence numbers (which follow from the order).
func (c *corpus) digest() string {
	h := sha256.New()
	var word [4]byte
	put := func(n int) {
		binary.BigEndian.PutUint32(word[:], uint32(n))
		h.Write(word[:])
	}
	h.Write(c.eiaText)
	for i := range c.streams {
		s := &c.streams[i]
		put(len(s.pool))
		for _, d := range s.pool {
			patchSeq(d.raw, 0)
			put(len(d.raw))
			h.Write(d.raw)
		}
		for _, sched := range s.sched {
			put(len(sched))
			for _, idx := range sched {
				put(int(idx))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
