package netflow

import (
	"container/list"
	"fmt"
	"time"

	"infilter/internal/flow"
	"infilter/internal/packet"
)

// CacheConfig tunes the router flow cache. Zero values take the defaults
// typical of a v5 exporter.
type CacheConfig struct {
	// IdleTimeout expires a flow that has seen no packet for this long.
	IdleTimeout time.Duration
	// ActiveTimeout expires a flow that has been active for this long.
	ActiveTimeout time.Duration
	// MaxEntries caps the cache; at the cap the least-recently-updated
	// flow is force-expired before admitting a new one ("cache close to
	// full" in the paper's expiry list).
	MaxEntries int
	// ExpireOnFINRST expires TCP flows when a FIN or RST is observed.
	ExpireOnFINRST bool
}

// Default flow-cache parameters: Cisco's classic 15s inactive / 30min
// active timers.
const (
	DefaultIdleTimeout   = 15 * time.Second
	DefaultActiveTimeout = 30 * time.Minute
	DefaultMaxEntries    = 65536
)

func (c CacheConfig) withDefaults() CacheConfig {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.ActiveTimeout <= 0 {
		c.ActiveTimeout = DefaultActiveTimeout
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = DefaultMaxEntries
	}
	return c
}

type cacheEntry struct {
	rec  flow.Record
	elem *list.Element // position in the LRU list; value is flow.Key
}

// Cache emulates a router's NetFlow flow cache: packets accumulate into
// per-key entries and finished flows are emitted according to the v5
// expiration rules. The caller drives time explicitly, so replays are
// deterministic. Cache is not safe for concurrent use; wrap it if shared.
type Cache struct {
	cfg     CacheConfig
	entries map[flow.Key]*cacheEntry
	lru     *list.List // front = least recently updated
	expired []flow.Record
}

// NewCache returns an empty cache with cfg (zero fields defaulted).
func NewCache(cfg CacheConfig) *Cache {
	return &Cache{
		cfg:     cfg.withDefaults(),
		entries: make(map[flow.Key]*cacheEntry),
		lru:     list.New(),
	}
}

// Aggregate runs a packet trace through a fresh router flow cache (FIN/RST
// expiry on) with every packet arriving on ifIndex, and returns all of
// its flows in expiry order.
func Aggregate(pkts []packet.Packet, ifIndex uint16) []flow.Record {
	c := NewCache(CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		c.Observe(p, ifIndex)
	}
	c.FlushAll()
	return c.Drain()
}

// Len returns the number of active (unexpired) flows.
func (c *Cache) Len() int { return len(c.entries) }

// Observe accounts one packet arriving on input interface ifIndex at the
// packet's own timestamp. Any flows expired as a side effect (FIN/RST,
// active timeout, cache pressure) are queued for Drain.
func (c *Cache) Observe(p packet.Packet, ifIndex uint16) {
	key := p.FlowKey(ifIndex)
	now := p.Time

	e, ok := c.entries[key]
	if ok && now.Sub(e.rec.Start) >= c.cfg.ActiveTimeout {
		// Active timeout: close the long-lived flow and start a fresh one
		// with this packet.
		c.expireEntry(key, e)
		ok = false
	}
	if !ok {
		if len(c.entries) >= c.cfg.MaxEntries {
			c.evictOldest()
		}
		e = &cacheEntry{
			rec: flow.Record{Key: key, Start: now},
		}
		e.elem = c.lru.PushBack(key)
		c.entries[key] = e
	} else {
		c.lru.MoveToBack(e.elem)
	}
	e.rec.Packets++
	e.rec.Bytes += uint32(p.Length)
	e.rec.End = now
	e.rec.TCPFlag |= p.TCPFlags
	// Track the flow's minimum observed TTL (IE 52 semantics); packets
	// without TTL information (p.TTL == 0) leave the fold untouched.
	if p.TTL != 0 && (e.rec.TTL == 0 || p.TTL < e.rec.TTL) {
		e.rec.TTL = p.TTL
	}

	if c.cfg.ExpireOnFINRST && p.Proto == flow.ProtoTCP &&
		p.TCPFlags&(packet.FlagFIN|packet.FlagRST) != 0 {
		c.expireEntry(key, e)
	}
}

// Advance expires every flow idle at the given instant (idle timeout) or
// active beyond the active timeout, queueing them for Drain. Call it
// periodically with the replay clock. Expiry order follows the LRU list so
// replays are deterministic.
func (c *Cache) Advance(now time.Time) {
	for _, key := range c.lruKeys() {
		e := c.entries[key]
		if now.Sub(e.rec.End) >= c.cfg.IdleTimeout ||
			now.Sub(e.rec.Start) >= c.cfg.ActiveTimeout {
			c.expireEntry(key, e)
		}
	}
}

// FlushAll expires every remaining flow (end of replay) in LRU order.
func (c *Cache) FlushAll() {
	for _, key := range c.lruKeys() {
		c.expireEntry(key, c.entries[key])
	}
}

// lruKeys snapshots the flow keys from least to most recently updated.
func (c *Cache) lruKeys() []flow.Key {
	keys := make([]flow.Key, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		key, ok := el.Value.(flow.Key)
		if !ok {
			panic(fmt.Sprintf("netflow: LRU holds %T, want flow.Key", el.Value))
		}
		keys = append(keys, key)
	}
	return keys
}

// Drain returns and clears the queue of expired flow records, in expiry
// order.
func (c *Cache) Drain() []flow.Record {
	out := c.expired
	c.expired = nil
	return out
}

func (c *Cache) expireEntry(key flow.Key, e *cacheEntry) {
	c.expired = append(c.expired, e.rec)
	c.lru.Remove(e.elem)
	delete(c.entries, key)
}

func (c *Cache) evictOldest() {
	front := c.lru.Front()
	if front == nil {
		return
	}
	key, ok := front.Value.(flow.Key)
	if !ok {
		panic(fmt.Sprintf("netflow: LRU holds %T, want flow.Key", front.Value))
	}
	c.expireEntry(key, c.entries[key])
}
