package flowtools

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netflow"
	"infilter/internal/telemetry"
)

// Batch collector defaults.
const (
	// DefaultBatchRecords is the flush threshold when Config leaves
	// MaxRecords zero: enough to amortize per-batch costs, small enough to
	// keep queue latency in the tens of microseconds at line rate.
	DefaultBatchRecords = 256
	// DefaultFlushTimeout bounds how long a partial batch may wait for
	// more datagrams, so trickle traffic keeps the per-record detection
	// latency of the classic collector.
	DefaultFlushTimeout = 5 * time.Millisecond
)

// Config assembles a Collector.
type Config struct {
	// Readers is the number of reader sockets (and goroutines) per
	// listened port. More than one requires SO_REUSEPORT kernel load
	// balancing; on platforms without it the count is clamped to 1.
	// Zero defaults to 1.
	Readers int
	// MaxRecords flushes a reader's batch once it holds at least this
	// many records. Zero defaults to DefaultBatchRecords.
	MaxRecords int
	// FlushTimeout delivers a partially filled batch after this long
	// even if no further datagrams arrive (the trickle-traffic bound).
	// Zero defaults to DefaultFlushTimeout.
	FlushTimeout time.Duration
	// ReadBuffer sets SO_RCVBUF on each reader socket when positive, so
	// bursts ride out handler latency in the kernel instead of dropping.
	ReadBuffer int
}

func (cfg *Config) applyDefaults() {
	if cfg.Readers <= 0 {
		cfg.Readers = 1
	}
	if !reusePortSupported && cfg.Readers > 1 {
		cfg.Readers = 1
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = DefaultBatchRecords
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
}

// Batch is one batched delivery: flow records decoded from export
// datagrams that arrived on one local UDP port, in arrival order as seen
// by one reader. The Records slice is reused by the reader and valid
// only for the duration of the call.
//
// Exporter and Version identify where the records came from when the
// whole batch shares one origin — always the case at MaxRecords 1, where
// every batch is exactly one datagram's records (the classic per-record
// path). A batch aggregated from datagrams of different exporters or
// export versions carries ""/0 instead.
type Batch struct {
	Port     int
	Exporter string
	Version  uint16
	Records  []flow.Record
}

// Handler consumes one batch. It is invoked concurrently from every
// reader goroutine and must be safe for concurrent use.
type Handler func(b Batch)

// IngestMetrics instruments the batched ingest path: the classic
// collector counters plus batch-shape telemetry (records per delivered
// batch, flush causes) and a records/sec gauge derived from the record
// counter between scrapes.
type IngestMetrics struct {
	*CollectorMetrics
	// BatchRecords is the infilter_ingest_batch_records histogram.
	BatchRecords *telemetry.Histogram
	// FlushFull/FlushTimeout/FlushClose split
	// infilter_ingest_batch_flushes_total by reason.
	FlushFull    *telemetry.Counter
	FlushTimeout *telemetry.Counter
	FlushClose   *telemetry.Counter
}

// NewIngestMetrics registers the batched-ingest series on r, including
// the classic collector counters (a daemon runs one ingest path, so the
// names never collide).
func NewIngestMetrics(r *telemetry.Registry) *IngestMetrics {
	m := &IngestMetrics{
		CollectorMetrics: NewCollectorMetrics(r),
		BatchRecords: r.Histogram("infilter_ingest_batch_records",
			"Flow records per delivered ingest batch.",
			telemetry.BatchSizeBuckets(), telemetry.UnitNone),
	}
	flushes := func(reason string) *telemetry.Counter {
		return r.Counter("infilter_ingest_batch_flushes_total",
			"Ingest batches delivered, by what triggered the flush.",
			telemetry.Label{Key: "reason", Value: reason})
	}
	m.FlushFull = flushes("full")
	m.FlushTimeout = flushes("timeout")
	m.FlushClose = flushes("close")
	r.GaugeFunc("infilter_ingest_records_per_second",
		"Flow records decoded per second, averaged between scrapes.",
		telemetry.NewRate(m.Records.Value).PerSecond)
	return m
}

func unregisteredIngestMetrics() *IngestMetrics {
	return &IngestMetrics{
		CollectorMetrics: unregisteredCollectorMetrics(),
		BatchRecords:     telemetry.NewHistogram(telemetry.BatchSizeBuckets()),
		FlushFull:        telemetry.NewCounter(),
		FlushTimeout:     telemetry.NewCounter(),
		FlushClose:       telemetry.NewCounter(),
	}
}

// datagramView is one received datagram as seen by a reader: the raw
// payload and the exporter's remote address. Views alias reader-owned
// buffers and are valid only until the reader's next read call.
type datagramView struct {
	raw      []byte
	exporter string
}

// datagramReader is the platform seam of the batch collector: the Linux
// implementation drains multiple datagrams per wakeup with recvmmsg, the
// portable fallback reads one at a time. Readers honor the connection's
// read deadline (timeouts surface as net.Error timeouts).
type datagramReader interface {
	read() ([]datagramView, error)
}

// singleReader is the portable datagramReader: one blocking ReadFromUDP
// per call. Used on platforms without recvmmsg and as the degraded mode
// when the raw descriptor is unavailable.
type singleReader struct {
	conn *net.UDPConn
	buf  []byte
	view [1]datagramView
}

func newSingleReader(conn *net.UDPConn) *singleReader {
	return &singleReader{conn: conn, buf: make([]byte, 65536)}
}

func (r *singleReader) read() ([]datagramView, error) {
	n, remote, err := r.conn.ReadFromUDP(r.buf)
	if err != nil {
		return nil, err
	}
	r.view[0] = datagramView{raw: r.buf[:n], exporter: remote.String()}
	return r.view[:1], nil
}

// Collector is the flow-capture path: per listened port it runs one or
// more reader sockets (SO_REUSEPORT when more than one), each reader
// decoding datagrams through its own DecodeBuffer and accumulating
// records into a batch delivered to the Handler when it reaches
// MaxRecords — or after FlushTimeout, so a trickle of traffic is never
// stranded waiting for a full batch. MaxRecords 1 makes every delivery
// exactly one datagram's records, reproducing the classic per-record
// collector. Close stops every reader, delivering any partially filled
// batches first.
type Collector struct {
	handler   Handler
	cfg       Config
	metrics   *IngestMetrics
	templates *netflow.TemplateCache

	mu     sync.Mutex
	conns  []*net.UDPConn
	closed bool

	wg sync.WaitGroup
}

// New returns a collector delivering to handler with a private template
// cache of default bounds (see SetTemplateCache).
func New(cfg Config, handler Handler) *Collector {
	cfg.applyDefaults()
	return &Collector{
		handler:   handler,
		cfg:       cfg,
		metrics:   unregisteredIngestMetrics(),
		templates: netflow.NewTemplateCache(netflow.TemplateCacheConfig{}),
	}
}

// Readers reports the per-port reader count after platform clamping.
func (c *Collector) Readers() int { return c.cfg.Readers }

// SetMetrics installs runtime instrumentation (nil reverts to
// unregistered counters). Call before the first Listen.
func (c *Collector) SetMetrics(m *IngestMetrics) {
	if m == nil {
		m = unregisteredIngestMetrics()
	}
	c.metrics = m
}

// SetTemplateCache installs the v9/IPFIX template cache shared by all
// readers (nil reverts to a private default one). Call before the first
// Listen.
func (c *Collector) SetTemplateCache(tc *netflow.TemplateCache) {
	if tc == nil {
		tc = netflow.NewTemplateCache(netflow.TemplateCacheConfig{})
	}
	c.templates = tc
}

// Listen binds cfg.Readers sockets to the given UDP port (0 picks an
// ephemeral port; the remaining readers then bind the chosen one) and
// starts their reader goroutines. It returns the bound port.
func (c *Collector) Listen(port int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrCollectorClosed
	}
	reuse := c.cfg.Readers > 1
	bound := port
	var conns []*net.UDPConn
	for i := 0; i < c.cfg.Readers; i++ {
		conn, err := listenUDPPort(bound, c.cfg.ReadBuffer, reuse)
		if err != nil {
			for _, pc := range conns {
				pc.Close()
			}
			return 0, fmt.Errorf("flowtools: listen udp %d (reader %d): %w", bound, i, err)
		}
		conns = append(conns, conn)
		if addr, ok := conn.LocalAddr().(*net.UDPAddr); ok {
			bound = addr.Port
		}
	}
	c.conns = append(c.conns, conns...)
	for _, conn := range conns {
		c.wg.Add(1)
		go c.readLoop(conn, newDatagramReader(conn), bound)
	}
	return bound, nil
}

// readLoop is one reader: drain datagrams, decode, batch, flush. The
// flush deadline is armed when the first records of a batch land and
// disarmed on flush, so an idle reader blocks indefinitely while a
// partial batch waits at most FlushTimeout.
func (c *Collector) readLoop(conn *net.UDPConn, r datagramReader, port int) {
	defer c.wg.Done()
	db := netflow.NewDecodeBuffer(c.templates)
	batch := make([]flow.Record, 0, c.cfg.MaxRecords)
	var (
		flushAt       time.Time
		batchExporter string
		batchVersion  uint16
		batchMixed    bool
	)
	flush := func(reason *telemetry.Counter) {
		if len(batch) == 0 {
			return
		}
		c.metrics.BatchRecords.Observe(int64(len(batch)))
		reason.Inc()
		b := Batch{Port: port, Records: batch}
		if !batchMixed {
			b.Exporter, b.Version = batchExporter, batchVersion
		}
		c.handler(b)
		batch = batch[:0]
		batchMixed = false
		flushAt = time.Time{}
	}
	for {
		conn.SetReadDeadline(flushAt) // zero flushAt: no deadline
		views, err := r.read()
		if err != nil {
			if isTimeout(err) {
				flush(c.metrics.FlushTimeout)
				continue
			}
			// Closed socket (or fatal error): deliver the partial batch,
			// stop this reader.
			flush(c.metrics.FlushClose)
			return
		}
		m := c.metrics
		for _, v := range views {
			m.Datagrams.Inc()
			db.SetExporter(v.exporter)
			msg, err := netflow.Decode(v.raw, db)
			if err != nil {
				m.DecodeErrors.Inc()
				continue
			}
			countRecords(m.Records, msg.Records)
			if len(msg.Records) == 0 {
				continue
			}
			if len(batch) == 0 {
				flushAt = time.Now().Add(c.cfg.FlushTimeout)
				batchExporter, batchVersion = v.exporter, msg.Version
			} else if v.exporter != batchExporter || msg.Version != batchVersion {
				batchMixed = true
			}
			// The decoded records alias db and the next Decode reuses it,
			// so the batch takes a copy (this append is also what
			// aggregates multiple datagrams into one delivery).
			batch = append(batch, msg.Records...)
			if len(batch) >= c.cfg.MaxRecords {
				flush(m.FlushFull)
			}
		}
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// Stats reports received records and malformed datagrams, as
// Collector.Stats does.
func (c *Collector) Stats() (received, malformed int) {
	return int(c.metrics.Records.Value()), int(c.metrics.DecodeErrors.Value())
}

// Close shuts down every reader socket and waits for the reader
// goroutines to exit. Partially filled batches are delivered before the
// readers stop. Safe to call more than once.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()

	var firstErr error
	for _, conn := range conns {
		if err := conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.wg.Wait()
	return firstErr
}
