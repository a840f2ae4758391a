// Package dagflow reimplements the paper's Dagflow traffic-replay tool
// (§6.1): it synthesizes flow-export streams (NetFlow v5, v9 or IPFIX)
// from packet traces without any routers, supports controlled rewriting
// of source IP addresses (both
// benign re-homing onto allocated address blocks and attack spoofing),
// controls the distribution of source addresses across blocks, and directs
// each instance's export datagrams at a configurable UDP destination port.
package dagflow

import (
	"errors"
	"fmt"
	"net"
	"time"

	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
)

// SourcePolicy rewrites the source address of every replayed packet. The
// mapping must be deterministic per original address within one replay so a
// multi-packet flow stays one flow after rewriting.
type SourcePolicy interface {
	Rewrite(orig netaddr.Addr) netaddr.Addr
}

// IdentityPolicy keeps source addresses unchanged.
type IdentityPolicy struct{}

// Rewrite returns orig unchanged.
func (IdentityPolicy) Rewrite(orig netaddr.Addr) netaddr.Addr { return orig }

// WeightedBlock pairs an address block with a selection weight.
type WeightedBlock struct {
	Prefix netaddr.Prefix
	Weight float64
}

// BlockPolicy deterministically re-homes source addresses onto a weighted
// set of address blocks — Dagflow's "control the distribution of the source
// IP addresses" feature (e.g. 25% in 192.4/16, 25% in 214.96/16, 50% in
// 145.25/16). The same original address always maps to the same rewritten
// address, keeping flows intact.
type BlockPolicy struct {
	blocks []WeightedBlock
	total  float64
	salt   uint64
}

// ErrNoBlocks is returned when a policy is built with no usable blocks.
var ErrNoBlocks = errors.New("dagflow: no address blocks with positive weight")

// NewBlockPolicy builds a policy over the given weighted blocks. salt
// varies the mapping between instances without losing determinism.
func NewBlockPolicy(blocks []WeightedBlock, salt uint64) (*BlockPolicy, error) {
	var kept []WeightedBlock
	total := 0.0
	for _, b := range blocks {
		if b.Weight <= 0 {
			continue
		}
		kept = append(kept, b)
		total += b.Weight
	}
	if len(kept) == 0 {
		return nil, ErrNoBlocks
	}
	return &BlockPolicy{blocks: kept, total: total, salt: salt}, nil
}

// UniformBlocks wraps prefixes with equal weights.
func UniformBlocks(prefixes []netaddr.Prefix) []WeightedBlock {
	out := make([]WeightedBlock, len(prefixes))
	for i, p := range prefixes {
		out[i] = WeightedBlock{Prefix: p, Weight: 1}
	}
	return out
}

// Rewrite maps orig onto one of the policy's blocks, weighted, determined
// entirely by a hash of the original address and the salt. A v4 original
// hashes exactly as the pre-dual-stack engine did, so existing replay
// fixtures keep their mappings; v6 originals fold both address words in.
func (p *BlockPolicy) Rewrite(orig netaddr.Addr) netaddr.Addr {
	var h uint64
	if v4, ok := orig.V4(); ok {
		h = splitmix64(uint64(v4) ^ p.salt)
	} else {
		hi, lo := orig.Uint64Pair()
		h = splitmix64(hi ^ splitmix64(lo) ^ p.salt)
	}
	// Select a block by weight using the top bits.
	sel := float64(h>>11) / float64(1<<53) * p.total
	idx := 0
	for i, b := range p.blocks {
		if sel < b.Weight {
			idx = i
			break
		}
		sel -= b.Weight
		idx = i
	}
	blk := p.blocks[idx].Prefix
	// Offset within the block from an independent hash.
	off := splitmix64(h) % blk.Size()
	return blk.Nth(off)
}

// SpoofPolicy rewrites every source address pseudo-randomly into a set of
// foreign blocks — the attack-side spoofing knob. Unlike BlockPolicy the
// mapping is still deterministic per original address, so a multi-packet
// attack flow keeps a single (spoofed) source.
type SpoofPolicy struct {
	inner *BlockPolicy
}

// NewSpoofPolicy builds a spoofing policy drawing uniformly from blocks.
func NewSpoofPolicy(prefixes []netaddr.Prefix, seed int64) (*SpoofPolicy, error) {
	bp, err := NewBlockPolicy(UniformBlocks(prefixes), splitmix64(uint64(seed)))
	if err != nil {
		return nil, err
	}
	return &SpoofPolicy{inner: bp}, nil
}

// Rewrite returns the spoofed source for orig.
func (p *SpoofPolicy) Rewrite(orig netaddr.Addr) netaddr.Addr {
	return p.inner.Rewrite(orig)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// exportInterval is the period at which an instance batches expired
// flows into export datagrams.
const exportInterval = time.Second

// Config parameterizes one Dagflow instance, which emulates one border
// router: it owns a flow cache, an export engine and a destination port.
type Config struct {
	// Name labels the instance (e.g. "S1").
	Name string
	// Policy rewrites source addresses. Nil keeps them unchanged.
	Policy SourcePolicy
	// InputIf is the ifIndex stamped on emitted flows.
	InputIf uint16
	// Cache configures the emulated router flow cache.
	Cache netflow.CacheConfig
	// EngineID tags the export stream: the v5 engine id, or the v9 source
	// id / IPFIX observation domain id.
	EngineID uint8
	// Version selects the export wire format: netflow.VersionV5 (the
	// default when zero), VersionV9 or VersionIPFIX.
	Version uint16
	// TemplateDelay (v9/IPFIX only) withholds the template datagram until
	// this many data datagrams have been sent, to exercise a receiver's
	// orphan buffering. Zero announces the template first, as real
	// exporters do.
	TemplateDelay int
}

// Instance replays packet traces as flow-export datagrams.
type Instance struct {
	cfg   Config
	cache *netflow.Cache
	enc   netflow.WireEncoder
}

// New builds an instance. boot anchors the exporter's sysUptime clock.
func New(cfg Config, boot time.Time) *Instance {
	if cfg.Policy == nil {
		cfg.Policy = IdentityPolicy{}
	}
	var tmpl *netflow.TemplateEncoder
	switch cfg.Version {
	case netflow.VersionV9:
		tmpl = netflow.NewV9Encoder(boot, uint32(cfg.EngineID))
	case netflow.VersionIPFIX:
		tmpl = netflow.NewIPFIXEncoder(uint32(cfg.EngineID))
	}
	var enc netflow.WireEncoder = netflow.NewV5Encoder(boot, cfg.EngineID)
	if tmpl != nil {
		tmpl.SetTemplateDelay(cfg.TemplateDelay)
		enc = tmpl
	}
	return &Instance{cfg: cfg, cache: netflow.NewCache(cfg.Cache), enc: enc}
}

// Version reports the export wire format the instance emits.
func (in *Instance) Version() uint16 { return in.enc.Version() }

// Name returns the instance label.
func (in *Instance) Name() string { return in.cfg.Name }

// Replay runs a time-ordered packet trace through source rewriting and the
// flow cache, returning the export datagrams a router would have emitted
// in the instance's configured wire format. The trace's own timestamps
// drive the clock, so replay is deterministic and much faster than real
// time (the paper's motivation for Dagflow). NetFlow v5 carries IPv4
// only, so a v5 instance fails on the first packet that is IPv6 after
// source rewriting.
func (in *Instance) Replay(pkts []packet.Packet) ([]netflow.WireDatagram, error) {
	if len(pkts) == 0 {
		return nil, nil
	}
	var (
		out        []netflow.WireDatagram
		nextExport = pkts[0].Time.Add(exportInterval)
	)
	for i, p := range pkts {
		if i > 0 && p.Time.Before(pkts[i-1].Time) {
			return nil, fmt.Errorf("dagflow: %s: trace not time-ordered at packet %d", in.cfg.Name, i)
		}
		p.Src = in.cfg.Policy.Rewrite(p.Src)
		if in.enc.Version() == netflow.VersionV5 && (p.Src.Is6() || p.Dst.Is6()) {
			return nil, fmt.Errorf("dagflow: %s: IPv6 packet %d cannot be exported as NetFlow v5", in.cfg.Name, i)
		}
		in.cache.Observe(p, in.cfg.InputIf)
		for !p.Time.Before(nextExport) {
			in.cache.Advance(nextExport)
			out = append(out, in.enc.Encode(in.cache.Drain(), nextExport)...)
			nextExport = nextExport.Add(exportInterval)
		}
	}
	// End of trace: flush everything still cached, then the encoder (a
	// template-delayed replay must still end decodable).
	last := pkts[len(pkts)-1].Time
	in.cache.FlushAll()
	out = append(out, in.enc.Encode(in.cache.Drain(), last.Add(exportInterval))...)
	out = append(out, in.enc.Flush(last.Add(exportInterval))...)
	return out, nil
}

// SendUDP transmits datagrams to a UDP destination ("127.0.0.1:port" in
// the testbed — each instance targets a distinct port so the analysis side
// can demultiplex border routers).
func SendUDP(dst string, dgs []netflow.WireDatagram) error {
	conn, err := net.Dial("udp", dst)
	if err != nil {
		return fmt.Errorf("dagflow: dial %s: %w", dst, err)
	}
	defer conn.Close()
	for _, d := range dgs {
		if _, err := conn.Write(d.Raw); err != nil {
			return fmt.Errorf("dagflow: send to %s: %w", dst, err)
		}
	}
	return nil
}
