package analysis

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/nns"
)

// ParallelConfig assembles a ParallelEngine.
type ParallelConfig struct {
	// Config carries the pipeline settings shared with the serial Engine.
	Config
	// Shards is the number of worker shards. Flows are routed by peer AS
	// (shard = peer mod Shards), so every ingress keeps FIFO order and one
	// peer's flows never race each other — the per-peer-AS EIA semantics of
	// §3 carry over shard boundaries unchanged. Zero defaults to
	// runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds each shard's ingest queue. SubmitBatch blocks once a
	// shard's queue is full, pushing backpressure onto the producer (for
	// infilterd, the UDP receive loops; the kernel sheds load beyond
	// that). Zero defaults to DefaultQueueDepth.
	QueueDepth int
	// Metrics receives the engine's counters (nil: a private set the
	// engine builds itself). It must have been built with
	// NewPipelineMetrics for the same shard count this config resolves
	// to, and belongs to exactly one engine.
	Metrics *PipelineMetrics
}

// DefaultQueueDepth is the per-shard queue bound when none is configured.
const DefaultQueueDepth = 256

// shardBatch is the one queue message shape: a batch of records observed
// at one peer, staged in a pooled slice (recs aliases *pooled) that the
// worker hands back to recSlicePool once it has consumed the batch.
type shardBatch struct {
	peer   eia.PeerAS
	recs   []flow.Record
	pooled *[]flow.Record
}

// recSlicePool recycles batch staging slices between SubmitBatch and
// the workers that drain them, keeping the steady-state submit path
// allocation-free.
var recSlicePool = sync.Pool{New: func() any { return new([]flow.Record) }}

// ErrEngineClosed is returned by SubmitBatch after Close.
var ErrEngineClosed = errors.New("analysis: parallel engine closed")

// ParallelEngine is the sharded, concurrency-safe Enhanced-InFilter
// pipeline: the N-shard queue-driven case of the shared pipeline core. It
// partitions work by peer AS across Shards workers; the EIA store is the
// shared copy-on-write snapshot store (reads are lock-free, promotions
// go through its single writer), the NNS detector is shared read-only
// (Assess is safe for concurrent use after training), each shard owns a
// private scan analyzer, and the counters are atomics settled once per
// batch, so the hot path takes no global locks.
//
// SubmitBatch and Stats are safe for concurrent use. SetAlertSink and
// SetClock must be called before the first SubmitBatch; the installed
// alert sink is invoked from worker goroutines and must itself be
// concurrency-safe.
type ParallelEngine struct {
	*core

	submitted atomic.Int64

	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// NewParallelEngine assembles a sharded engine from pre-trained
// components and starts its workers. detector may be nil only in
// ModeBasic. The set is adopted by an eia.Store, so AddPrefix on it
// panics afterwards.
func NewParallelEngine(cfg ParallelConfig, set *eia.Set, detector *nns.Detector) (*ParallelEngine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	c, err := newCore(cfg.Config, set, detector, cfg.Shards, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	e := &ParallelEngine{core: c}
	for i, s := range c.shards {
		q := make(chan shardBatch, cfg.QueueDepth)
		s.queue = q
		c.metrics.registerQueueGauge(i, func() int64 { return int64(len(q)) })
	}
	for _, s := range c.shards {
		e.wg.Add(1)
		go e.worker(s)
	}
	return e, nil
}

// TrainParallel builds a fully-trained sharded engine from labeled normal
// traffic, the way Train does for the serial Engine.
func TrainParallel(cfg ParallelConfig, normal []LabeledRecord) (*ParallelEngine, error) {
	set, detector, err := trainComponents(cfg.Config, normal)
	if err != nil {
		return nil, err
	}
	return NewParallelEngine(cfg, set, detector)
}

// Shards returns the number of worker shards.
func (e *ParallelEngine) Shards() int { return len(e.shards) }

// shardFor routes a peer AS to its worker.
func (e *ParallelEngine) shardFor(peer eia.PeerAS) *shard {
	return e.shards[int(peer)%len(e.shards)]
}

// SubmitBatch enqueues a batch of flows that all entered through peer —
// the shape one ingest reader hands over, since a local port maps to one
// peering link. The whole batch lands on peer's shard as one queue
// message and is classified against one EIA snapshot; per-peer flow order
// is the batch order. It blocks while the shard's queue is full
// (backpressure) and returns ErrEngineClosed after Close.
func (e *ParallelEngine) SubmitBatch(peer eia.PeerAS, recs []flow.Record) error {
	if len(recs) == 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.submitted.Add(int64(len(recs)))
	p := recSlicePool.Get().(*[]flow.Record)
	staged := append((*p)[:0], recs...) // one bulk copy; caller keeps recs
	*p = staged
	e.enqueue(e.shardFor(peer), shardBatch{peer: peer, recs: staged, pooled: p})
	return nil
}

// enqueue places one message on s's queue, counting (then waiting out)
// backpressure when the queue is full.
func (e *ParallelEngine) enqueue(s *shard, sb shardBatch) {
	select {
	case s.queue <- sb:
	default:
		// Full queue: count the backpressure event, then block as before.
		s.pl.metrics.blocks.Inc()
		s.queue <- sb
	}
}

func (e *ParallelEngine) worker(s *shard) {
	defer e.wg.Done()
	for sb := range s.queue {
		e.processBatch(s, sb.peer, sb.recs, nil)
		*sb.pooled = sb.recs[:0]
		recSlicePool.Put(sb.pooled)
	}
}

// Flush blocks until every flow submitted before the call has been
// given a verdict and counted. It is a drain barrier for tests and
// benchmarks; it does not stop the engine.
func (e *ParallelEngine) Flush() {
	target := e.submitted.Load()
	for e.metrics.flows() < target {
		time.Sleep(50 * time.Microsecond)
	}
}

// Close drains the shard queues, waits for every worker to exit and
// releases the engine. Subsequent SubmitBatch calls return ErrEngineClosed; Close is
// idempotent. Flows already queued are fully processed (graceful drain),
// so counters and alerts for them are emitted before Close returns.
func (e *ParallelEngine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		close(s.queue)
	}
	e.wg.Wait()
	return nil
}
