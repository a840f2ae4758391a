package scan

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"infilter/internal/netaddr"
	"infilter/internal/telemetry"
)

// TTLProfile is the per-source expected-TTL second-opinion detector
// ("Carrier-Grade Anomaly Detection Using Time-to-Live Header
// Information"): the TTL a source's packets arrive with at an ingress is
// its initial TTL minus its hop distance, which is stable over time, so
// a flow whose observed TTL deviates from the source's learned profile
// by more than a hop-jitter tolerance is being emitted from somewhere
// else — a spoof signal independent of the EIA peer mapping and of the
// NNS traffic statistics. Sources are aggregated to a prefix
// granularity (/24 v4, /48 v6 by default, per the carrier paper) so
// profiles converge quickly even when individual host addresses recur
// rarely.
//
// Unlike Analyzer, one TTLProfile is shared by every pipeline shard:
// profiles must aggregate a source's flows across shards, so the table
// is stripe-locked instead of replicated.
type TTLProfile struct {
	cfg     TTLConfig
	stripes [ttlStripes]ttlStripe
	sources atomic.Int64
	metrics *TTLMetrics
}

type ttlStripe struct {
	mu sync.Mutex
	m  map[netaddr.Addr]ttlEntry
}

type ttlEntry struct {
	expected uint8
	samples  uint32
}

const ttlStripes = 64

// TTLConfig tunes the TTL-profile detector.
type TTLConfig struct {
	// Tolerance is the accepted absolute deviation, in hops, between a
	// flow's TTL and the source's learned expectation. Zero or negative
	// disables the stage entirely.
	Tolerance int
	// MinSamples is how many consistent observations a profile needs
	// before it renders spoof verdicts. Zero defaults to 3.
	MinSamples int
	// MaxSources bounds the profile table. Zero defaults to 262144
	// (~1.3 MiB of entries). At the cap, unseen sources pass unjudged
	// rather than evicting learned state.
	MaxSources int
	// PrefixLen4 / PrefixLen6 set the aggregation granularity. Zero
	// defaults to /24 and /48; use 32/128 for exact per-address
	// profiles.
	PrefixLen4 int
	PrefixLen6 int
}

// Defaults for TTLConfig.
const (
	DefaultTTLMinSamples = 3
	DefaultTTLMaxSources = 262144
	DefaultTTLPrefixLen4 = 24
	DefaultTTLPrefixLen6 = 48
)

// Enabled reports whether the config asks for the stage.
func (c TTLConfig) Enabled() bool { return c.Tolerance > 0 }

func (c TTLConfig) withDefaults() TTLConfig {
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultTTLMinSamples
	}
	if c.MaxSources <= 0 {
		c.MaxSources = DefaultTTLMaxSources
	}
	if c.PrefixLen4 <= 0 {
		c.PrefixLen4 = DefaultTTLPrefixLen4
	}
	if c.PrefixLen6 <= 0 {
		c.PrefixLen6 = DefaultTTLPrefixLen6
	}
	return c
}

// TTLMetrics count detector activity; shared across the pipeline since
// the profile itself is shared. The zero value is a profile's
// uninstrumented default: its nil counters discard counts.
type TTLMetrics struct {
	Trips  *telemetry.Counter
	Checks *telemetry.Counter
}

// NewTTLMetrics registers the TTL counters on r.
func NewTTLMetrics(r *telemetry.Registry) *TTLMetrics {
	return &TTLMetrics{
		Trips:  r.Counter("infilter_ttl_trips_total", "Flows whose TTL deviated from the source profile beyond tolerance."),
		Checks: r.Counter("infilter_ttl_checks_total", "TTL-bearing flows assessed against a source profile."),
	}
}

// NewTTLProfile returns an empty profile table, or nil when cfg
// disables the stage — callers may Observe on a nil receiver.
func NewTTLProfile(cfg TTLConfig) *TTLProfile {
	if !cfg.Enabled() {
		return nil
	}
	p := &TTLProfile{cfg: cfg.withDefaults(), metrics: &TTLMetrics{}}
	for i := range p.stripes {
		p.stripes[i].m = make(map[netaddr.Addr]ttlEntry)
	}
	return p
}

// SetMetrics installs detector counters (nil restores the
// uninstrumented default). Call before the owner starts feeding flows.
// Safe on a nil receiver.
func (p *TTLProfile) SetMetrics(m *TTLMetrics) {
	if p == nil {
		return
	}
	if m == nil {
		m = &TTLMetrics{}
	}
	p.metrics = m
}

// Sources reports how many source profiles are currently learned. Zero
// on a nil receiver.
func (p *TTLProfile) Sources() int64 {
	if p == nil {
		return 0
	}
	return p.sources.Load()
}

// key aggregates a source address to the configured prefix granularity.
func (p *TTLProfile) key(src netaddr.Addr) netaddr.Addr {
	bits := p.cfg.PrefixLen4
	if src.Is6() {
		bits = p.cfg.PrefixLen6
	}
	pfx, err := netaddr.NewPrefix(src, bits)
	if err != nil {
		return src
	}
	return pfx.Addr()
}

func (p *TTLProfile) stripe(key netaddr.Addr) *ttlStripe {
	hi, lo := key.Uint64Pair()
	h := (hi*0x9e3779b97f4a7c15 ^ lo) * 0xff51afd7ed558ccd
	return &p.stripes[(h>>58)&(ttlStripes-1)]
}

// Observe assesses one TTL-bearing flow from src and reports whether it
// contradicts the source's learned profile (a spoof verdict).
// Consistent observations fold into the profile; deviating ones do not,
// so a spoofing burst cannot drag a victim's expectation toward the
// attacker's hop distance. ttl == 0 means "no TTL information" (v5
// ingest, TTL-less templates) and is never assessed or learned. Safe on
// a nil receiver, which never flags.
func (p *TTLProfile) Observe(src netaddr.Addr, ttl uint8) bool {
	if p == nil || ttl == 0 || !src.IsValid() {
		return false
	}
	key := p.key(src)
	st := p.stripe(key)
	st.mu.Lock()
	e, known := st.m[key]
	if known && e.samples >= uint32(p.cfg.MinSamples) && deviates(ttl, e.expected, p.cfg.Tolerance) {
		st.mu.Unlock()
		p.metrics.Checks.Inc()
		p.metrics.Trips.Inc()
		return true
	}
	if !known {
		if p.sources.Load() >= int64(p.cfg.MaxSources) {
			st.mu.Unlock()
			p.metrics.Checks.Inc()
			return false
		}
		p.sources.Add(1)
	}
	// Learn: expectation is the maximum consistent TTL, i.e. the
	// shortest observed path — route flaps only lengthen paths
	// transiently, and max-folding keeps the profile anchored to the
	// stable shortest route.
	if ttl > e.expected {
		e.expected = ttl
	}
	if e.samples < ^uint32(0) {
		e.samples++
	}
	st.m[key] = e
	st.mu.Unlock()
	p.metrics.Checks.Inc()
	return false
}

// Expected returns the learned TTL and sample count for src's aggregate
// (monitoring and tests); ok is false when no profile exists.
func (p *TTLProfile) Expected(src netaddr.Addr) (ttl uint8, samples uint32, ok bool) {
	if p == nil {
		return 0, 0, false
	}
	key := p.key(src)
	st := p.stripe(key)
	st.mu.Lock()
	e, known := st.m[key]
	st.mu.Unlock()
	return e.expected, e.samples, known
}

func deviates(got, want uint8, tolerance int) bool {
	d := int(got) - int(want)
	if d < 0 {
		d = -d
	}
	return d > tolerance
}

// Checkpoint format: a versioned header then one sorted row per learned
// source, "<addr> <expectedTTL> <samples>". The artifact is additive to
// the state directory — a directory without it simply starts the
// detector cold — matching the EIA checkpoint's forward-compat posture.
const (
	ttlCheckpointMagic   = "# infilter-ttl-checkpoint v"
	ttlCheckpointVersion = 1
)

// WriteCheckpoint writes the learned profiles as a versioned
// checkpoint. Rows are sorted by address so equal states serialize to
// equal bytes.
func (p *TTLProfile) WriteCheckpoint(w io.Writer) error {
	type row struct {
		addr netaddr.Addr
		e    ttlEntry
	}
	var rows []row
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for a, e := range st.m {
			rows = append(rows, row{a, e})
		}
		st.mu.Unlock()
	}
	slices.SortFunc(rows, func(x, y row) int { return x.addr.Compare(y.addr) })
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s%d\n", ttlCheckpointMagic, ttlCheckpointVersion); err != nil {
		return fmt.Errorf("ttl: write checkpoint header: %w", err)
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", r.addr, r.e.expected, r.e.samples); err != nil {
			return fmt.Errorf("ttl: write checkpoint row: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCheckpointInto loads a checkpoint written by WriteCheckpoint into
// p. Malformed input returns an error and never panics, so a corrupt
// file fails a warm restart loudly instead of poisoning the profiles.
// Beyond unparsable lines, that covers the rows WriteCheckpoint never
// writes: an address that is not the base of one of p's aggregates
// (Observe would never match it), a row repeated, and more rows than
// p's MaxSources.
func ReadCheckpointInto(p *TTLProfile, r io.Reader) error {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("ttl: read checkpoint: %w", err)
		}
		return fmt.Errorf("ttl: checkpoint: empty file")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, ttlCheckpointMagic) {
		return fmt.Errorf("ttl: checkpoint: bad header %q", header)
	}
	if v, err := strconv.Atoi(strings.TrimPrefix(header, ttlCheckpointMagic)); err != nil || v != ttlCheckpointVersion {
		return fmt.Errorf("ttl: checkpoint: unsupported version in header %q", header)
	}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return fmt.Errorf("ttl: checkpoint line %d: want 3 fields, got %d", line, len(fields))
		}
		addr, err := netaddr.ParseAddr(fields[0])
		if err != nil {
			return fmt.Errorf("ttl: checkpoint line %d: %w", line, err)
		}
		ttl, err := strconv.ParseUint(fields[1], 10, 8)
		if err != nil {
			return fmt.Errorf("ttl: checkpoint line %d: bad ttl: %w", line, err)
		}
		samples, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return fmt.Errorf("ttl: checkpoint line %d: bad samples: %w", line, err)
		}
		if key := p.key(addr); key != addr {
			return fmt.Errorf("ttl: checkpoint line %d: %s is not an aggregate base (want %s)", line, addr, key)
		}
		st := p.stripe(addr)
		st.mu.Lock()
		_, known := st.m[addr]
		full := p.sources.Load() >= int64(p.cfg.MaxSources)
		if !known && !full {
			p.sources.Add(1)
			st.m[addr] = ttlEntry{expected: uint8(ttl), samples: uint32(samples)}
		}
		st.mu.Unlock()
		if known {
			return fmt.Errorf("ttl: checkpoint line %d: duplicate row for %s", line, addr)
		}
		if full {
			return fmt.Errorf("ttl: checkpoint line %d: more than %d sources", line, p.cfg.MaxSources)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ttl: read checkpoint: %w", err)
	}
	return nil
}
