package netflow

import (
	"sync"
	"time"

	"infilter/internal/telemetry"
)

// TemplateField is one field specifier of a v9/IPFIX template: the
// information element id, its encoded length in bytes (lenVariable for
// IPFIX variable-length encoding) and, for IPFIX enterprise-specific
// elements, the enterprise number.
type TemplateField struct {
	ID         uint16
	Length     uint16
	Enterprise uint32
}

// lenVariable is the IPFIX field-length sentinel for variable-length
// encoding (RFC 7011 §7).
const lenVariable = 0xFFFF

// Template is one compiled flow-record layout learned from a template
// set. Fields is immutable after insertion into the cache, so decoders
// may read it without holding the cache lock.
type Template struct {
	ID     uint16
	Fields []TemplateField

	// fixedLen is the per-record byte length when no field is
	// variable-length; minLen is the smallest possible record length
	// (equal to fixedLen for fixed templates), used to separate trailing
	// set padding from a truncated record.
	fixedLen int
	minLen   int
	variable bool

	refreshed time.Time // last time a template set (re)announced it
}

// compile derives the length bookkeeping from Fields.
func (t *Template) compile() {
	t.fixedLen, t.minLen, t.variable = 0, 0, false
	for _, f := range t.Fields {
		if f.Length == lenVariable {
			t.variable = true
			t.minLen++ // at least the 1-byte length prefix
			continue
		}
		t.fixedLen += int(f.Length)
		t.minLen += int(f.Length)
	}
	if t.variable {
		t.fixedLen = -1
	}
}

// Template/orphan cache defaults.
const (
	DefaultMaxTemplates = 4096
	DefaultTemplateTTL  = 30 * time.Minute
	DefaultMaxOrphans   = 512
	DefaultOrphanTTL    = time.Minute
)

// TemplateCacheConfig bounds the per-exporter template and orphan state.
// Zero values take the defaults above.
type TemplateCacheConfig struct {
	// MaxTemplates caps learned templates across all exporters; at the
	// cap the least-recently-refreshed template is evicted.
	MaxTemplates int
	// TemplateTTL expires a template that has not been re-announced for
	// this long (exporters periodically resend templates; silence means
	// the exporter restarted or the template was retired).
	TemplateTTL time.Duration
	// MaxOrphans caps buffered data sets that arrived before their
	// template, across all exporters; at the cap new orphans are dropped
	// and counted.
	MaxOrphans int
	// OrphanTTL expires buffered orphans whose template never arrived.
	OrphanTTL time.Duration
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

func (c TemplateCacheConfig) withDefaults() TemplateCacheConfig {
	if c.MaxTemplates <= 0 {
		c.MaxTemplates = DefaultMaxTemplates
	}
	if c.TemplateTTL <= 0 {
		c.TemplateTTL = DefaultTemplateTTL
	}
	if c.MaxOrphans <= 0 {
		c.MaxOrphans = DefaultMaxOrphans
	}
	if c.OrphanTTL <= 0 {
		c.OrphanTTL = DefaultOrphanTTL
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Metrics are the ingest-side decode counters: datagrams per export
// version, template cache lifecycle events, orphaned data sets and
// per-exporter sequence gaps.
type Metrics struct {
	DatagramsV5    *telemetry.Counter
	DatagramsV9    *telemetry.Counter
	DatagramsIPFIX *telemetry.Counter

	TemplatesLearned *telemetry.Counter
	TemplatesExpired *telemetry.Counter

	OrphansBuffered *telemetry.Counter
	OrphansResolved *telemetry.Counter
	OrphansDropped  *telemetry.Counter

	SequenceGaps *telemetry.Counter
}

// NewMetrics registers the decode counters on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	dg := func(v string) *telemetry.Counter {
		return r.Counter("infilter_netflow_datagrams_total",
			"Flow-export datagrams decoded, by export format version.",
			telemetry.Label{Key: "version", Value: v})
	}
	return &Metrics{
		DatagramsV5:      dg("5"),
		DatagramsV9:      dg("9"),
		DatagramsIPFIX:   dg("10"),
		TemplatesLearned: r.Counter("infilter_netflow_templates_learned_total", "v9/IPFIX templates learned or changed."),
		TemplatesExpired: r.Counter("infilter_netflow_templates_expired_total", "Templates evicted by TTL or cache pressure."),
		OrphansBuffered:  r.Counter("infilter_netflow_orphans_buffered_total", "Data sets buffered because their template was not yet known."),
		OrphansResolved:  r.Counter("infilter_netflow_orphans_resolved_total", "Buffered data sets decoded after their template arrived."),
		OrphansDropped:   r.Counter("infilter_netflow_orphans_dropped_total", "Orphan data sets dropped at the buffer bound or by TTL."),
		SequenceGaps:     r.Counter("infilter_netflow_sequence_gaps_total", "Per-exporter export sequence gaps (lost datagrams or records)."),
	}
}

// domainKey identifies one (exporter, observation domain) template scope:
// v9 calls the domain a source id, IPFIX an observation domain id, and v5
// maps its engine id into the same space.
type domainKey struct {
	exporter string
	domain   uint32
}

// orphan is one buffered data set awaiting its template, with the clock
// basis computed from the datagram it arrived in (v9 sysUptime-relative
// timestamps resolve against that datagram's boot, not the one carrying
// the template).
type orphan struct {
	data   []byte
	ctx    recordContext
	stored time.Time
}

// seqState tracks the expected next export sequence number for one
// (exporter, domain): v9 counts datagrams, v5 and IPFIX count records.
type seqState struct {
	init bool
	next uint32
}

type domainState struct {
	templates map[uint16]*Template
	orphans   map[uint16][]orphan
	seq       seqState
}

// TemplateCache is the shared per-exporter, per-observation-domain decode
// state: learned templates (bounded, expiring), buffered orphan data sets
// (bounded, with a drop counter) and export sequence tracking. It is safe
// for concurrent use by multiple listeners sharing one cache; all decode
// buffers derived from the same cache resolve templates consistently.
type TemplateCache struct {
	cfg     TemplateCacheConfig
	metrics *Metrics

	mu            sync.Mutex
	domains       map[domainKey]*domainState
	templateCount int
	orphanCount   int
}

// NewTemplateCache returns an empty cache with the given bounds.
func NewTemplateCache(cfg TemplateCacheConfig) *TemplateCache {
	return &TemplateCache{
		cfg:     cfg.withDefaults(),
		metrics: &Metrics{}, // unregistered: nil counters discard records
		domains: make(map[domainKey]*domainState),
	}
}

// SetMetrics installs decode counters (nil disables). Call before the
// cache is shared with running listeners: decoders read the pointer
// without locking.
func (c *TemplateCache) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	c.metrics = m
}

// Len reports learned templates across all exporters.
func (c *TemplateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.templateCount
}

// OrphanCount reports buffered orphan data sets across all exporters.
func (c *TemplateCache) OrphanCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orphanCount
}

func (c *TemplateCache) state(key domainKey) *domainState {
	st, ok := c.domains[key]
	if !ok {
		st = &domainState{
			templates: make(map[uint16]*Template),
			orphans:   make(map[uint16][]orphan),
		}
		c.domains[key] = st
	}
	return st
}

// lookup returns the live template for (key, id), or nil. Expired
// templates are removed on access so a stale layout can never decode
// fresh data.
func (c *TemplateCache) lookup(key domainKey, id uint16) *Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.domains[key]
	if !ok {
		return nil
	}
	t, ok := st.templates[id]
	if !ok {
		return nil
	}
	if c.cfg.Now().Sub(t.refreshed) > c.cfg.TemplateTTL {
		delete(st.templates, id)
		c.templateCount--
		c.metrics.TemplatesExpired.Inc()
		return nil
	}
	return t
}

// learn inserts or refreshes a template and returns any buffered orphan
// data sets it unblocks (removed from the buffer; the caller decodes
// them). Re-announcements with an unchanged layout only refresh the TTL.
func (c *TemplateCache) learn(key domainKey, t *Template) []orphan {
	now := c.cfg.Now()
	t.compile()
	t.refreshed = now

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(key)
	prev, existed := st.templates[t.ID]
	if existed && sameFields(prev.Fields, t.Fields) {
		prev.refreshed = now
	} else {
		if !existed {
			c.templateCount++
			if c.templateCount > c.cfg.MaxTemplates {
				c.evictLocked(now)
			}
		}
		st.templates[t.ID] = t
		c.metrics.TemplatesLearned.Inc()
	}

	resolved := st.orphans[t.ID]
	if len(resolved) > 0 {
		delete(st.orphans, t.ID)
		c.orphanCount -= len(resolved)
		c.metrics.OrphansResolved.Add(int64(len(resolved)))
	}
	return resolved
}

// withdraw removes a template (IPFIX template withdrawal).
func (c *TemplateCache) withdraw(key domainKey, id uint16) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.domains[key]
	if !ok {
		return
	}
	if _, ok := st.templates[id]; ok {
		delete(st.templates, id)
		c.templateCount--
		c.metrics.TemplatesExpired.Inc()
	}
}

// evictLocked drops expired templates, and if none were expired, the
// least-recently-refreshed one, restoring the MaxTemplates bound.
func (c *TemplateCache) evictLocked(now time.Time) {
	var (
		oldestKey domainKey
		oldestID  uint16
		oldest    time.Time
		found     bool
	)
	for key, st := range c.domains {
		for id, t := range st.templates {
			if now.Sub(t.refreshed) > c.cfg.TemplateTTL {
				delete(st.templates, id)
				c.templateCount--
				c.metrics.TemplatesExpired.Inc()
				continue
			}
			if !found || t.refreshed.Before(oldest) {
				oldestKey, oldestID, oldest, found = key, id, t.refreshed, true
			}
		}
	}
	if c.templateCount > c.cfg.MaxTemplates && found {
		delete(c.domains[oldestKey].templates, oldestID)
		c.templateCount--
		c.metrics.TemplatesExpired.Inc()
	}
}

// buffer stores a copy of an unresolvable data set until its template
// arrives. At the bound (after expiring stale orphans) the set is dropped
// and counted. Returns whether the orphan was kept.
func (c *TemplateCache) buffer(key domainKey, templateID uint16, o orphan) bool {
	now := c.cfg.Now()
	o.stored = now

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.orphanCount >= c.cfg.MaxOrphans {
		c.expireOrphansLocked(now)
	}
	if c.orphanCount >= c.cfg.MaxOrphans {
		c.metrics.OrphansDropped.Inc()
		return false
	}
	st := c.state(key)
	st.orphans[templateID] = append(st.orphans[templateID], o)
	c.orphanCount++
	c.metrics.OrphansBuffered.Inc()
	return true
}

// expireOrphansLocked drops buffered orphans older than OrphanTTL.
func (c *TemplateCache) expireOrphansLocked(now time.Time) {
	for _, st := range c.domains {
		for id, list := range st.orphans {
			kept := list[:0]
			for _, o := range list {
				if now.Sub(o.stored) > c.cfg.OrphanTTL {
					c.orphanCount--
					c.metrics.OrphansDropped.Inc()
					continue
				}
				kept = append(kept, o)
			}
			if len(kept) == 0 {
				delete(st.orphans, id)
			} else {
				st.orphans[id] = kept
			}
		}
	}
}

// seqCheck validates the observed export sequence value against the
// expected one and advances the expectation by inc (1 datagram for v9;
// the record count for v5/IPFIX). It returns the number of missed units
// when a forward gap is detected. Backward jumps (reordering, exporter
// restart) resynchronize silently.
func (c *TemplateCache) seqCheck(key domainKey, observed, inc uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state(key)
	var gap uint64
	if st.seq.init {
		delta := observed - st.seq.next // uint32 wraparound arithmetic
		if delta != 0 && delta < 1<<31 {
			gap = uint64(delta)
			c.metrics.SequenceGaps.Inc()
		}
	}
	st.seq.init = true
	st.seq.next = observed + inc
	return gap
}

// seqReset forgets the sequence expectation for one domain so the next
// datagram resynchronizes. Used when a datagram's record count cannot be
// known (IPFIX data sets orphaned without their template), which would
// otherwise make every following datagram report a false gap.
func (c *TemplateCache) seqReset(key domainKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.domains[key]; ok {
		st.seq.init = false
	}
}

func sameFields(a, b []TemplateField) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
