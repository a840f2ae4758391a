package cluster

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"infilter/internal/eia"
	"infilter/internal/telemetry"
)

// Defaults for Config.
const (
	// DefaultInterval is the replication period: how often each peer
	// receives a fresh snapshot of the local EIA state.
	DefaultInterval = 5 * time.Second
	// DefaultDialTimeout bounds one connection attempt to a peer.
	DefaultDialTimeout = 3 * time.Second
	// DefaultIOTimeout bounds one handshake, snapshot write or ack read.
	DefaultIOTimeout = 10 * time.Second
	// DefaultMaxBackoff caps the retry backoff after repeated failures to
	// reach a peer; the first retry waits one Interval and doubles from
	// there.
	DefaultMaxBackoff = time.Minute
)

// Config assembles a Node.
type Config struct {
	// NodeID is this node's identity on the ring and in hellos. It must
	// be the address peers dial it at (every node builds the ring from
	// its own NodeID plus its Peers list, so the sets must agree
	// cluster-wide). Defaults to Listen.
	NodeID string
	// Listen is the TCP address for inbound replication ("" disables the
	// receive side; the node then only pushes snapshots out).
	Listen string
	// Peers are the replication addresses of the other nodes. Each gets
	// a dedicated sender loop.
	Peers []string
	// Interval between replication rounds. Zero defaults to
	// DefaultInterval.
	Interval time.Duration
	// DialTimeout / IOTimeout bound the network operations of one round.
	// Zero applies the defaults.
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// MaxBackoff caps the doubling retry backoff toward an unreachable
	// peer. Zero defaults to DefaultMaxBackoff.
	MaxBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.NodeID == "" {
		c.NodeID = c.Listen
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	if c.MaxBackoff < c.Interval {
		c.MaxBackoff = DefaultMaxBackoff
		if c.MaxBackoff < c.Interval {
			c.MaxBackoff = c.Interval
		}
	}
	return c
}

// peerState is one peer's sender-side bookkeeping. The sender goroutine
// owns conn; the mutex guards the status fields read by Status.
type peerState struct {
	addr string
	conn net.Conn // owned by the sender loop, nil when down

	mu          sync.Mutex
	up          bool
	rounds      uint64
	errors      uint64
	bytesSent   uint64
	lastError   string
	lastSuccess time.Time
	remote      mergeAck // last ack received from this peer
	hasRemote   bool
}

// PeerStatus is one peer's replication status as exposed on /cluster.
type PeerStatus struct {
	Addr        string    `json:"addr"`
	Up          bool      `json:"up"`
	Rounds      uint64    `json:"rounds"`
	Errors      uint64    `json:"errors"`
	BytesSent   uint64    `json:"bytes_sent"`
	LastError   string    `json:"last_error,omitempty"`
	LastSuccess time.Time `json:"last_success,omitzero"`
	// RemoteNode / RemotePrefixes echo the peer's last merge ack: its
	// node ID and its post-merge EIA prefix count.
	RemoteNode     string `json:"remote_node,omitempty"`
	RemotePrefixes int    `json:"remote_prefixes"`
}

// Status is the cluster view exposed on the admin /cluster endpoint:
// this node's identity and ring, per-peer replication status, and
// cluster-wide aggregates assembled from the last ack of every peer.
type Status struct {
	Node     string        `json:"node"`
	Listen   string        `json:"listen,omitempty"`
	Interval time.Duration `json:"interval_ns"`
	Ring     []string      `json:"ring"`

	// LocalPrefixes is this node's current EIA prefix count.
	LocalPrefixes int `json:"local_prefixes"`
	// RecvRounds / RecvErrors / MergedAdded / MergedRehomed summarize the
	// receive side (inbound snapshots folded into the local store).
	RecvRounds    uint64 `json:"recv_rounds"`
	RecvErrors    uint64 `json:"recv_errors"`
	MergedAdded   uint64 `json:"merged_added"`
	MergedRehomed uint64 `json:"merged_rehomed"`

	Peers []PeerStatus `json:"peers"`

	// Cluster aggregates the known state across the whole deployment:
	// nodes on the ring, peers currently reachable, and the per-node
	// prefix counts from the latest acks (this node included under its
	// own ID). TotalKnownPrefixes sums them — on a converged cluster it
	// is nodes × the common prefix count.
	Cluster ClusterAggregate `json:"cluster"`
}

// ClusterAggregate is the cluster-wide rollup inside Status.
type ClusterAggregate struct {
	Nodes              int            `json:"nodes"`
	PeersUp            int            `json:"peers_up"`
	PrefixesByNode     map[string]int `json:"prefixes_by_node"`
	TotalKnownPrefixes int            `json:"total_known_prefixes"`
	Converged          bool           `json:"converged"`
}

// Node runs one infilterd's share of the cluster: per-peer sender loops
// pushing the local EIA snapshot, and (with Listen set) an acceptor
// folding inbound snapshots into the local store. All networking is
// background work; the verdict path never waits on it.
type Node struct {
	cfg     Config
	ring    *Ring
	store   *eia.Store
	metrics *Metrics

	ln    net.Listener
	peers []*peerState

	mu     sync.Mutex // guards conns, closed
	conns  map[net.Conn]struct{}
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode validates cfg, builds the ring from NodeID plus Peers, and
// binds the replication listener (when configured). Start launches the
// background loops; a node that was never started may still be Closed.
func NewNode(cfg Config, store *eia.Store, m *Metrics) (*Node, error) {
	cfg = cfg.withDefaults()
	if store == nil {
		return nil, fmt.Errorf("cluster: nil EIA store")
	}
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node needs a NodeID or Listen address")
	}
	ring, err := NewRing(append([]string{cfg.NodeID}, cfg.Peers...))
	if err != nil {
		return nil, err
	}
	for i, p := range cfg.Peers {
		if slices.Contains(cfg.Peers[:i], p) {
			return nil, fmt.Errorf("cluster: peer %s given twice", p)
		}
	}
	if m == nil {
		m = NewMetrics(telemetry.NewRegistry(), cfg.Peers)
	}
	n := &Node{
		cfg:     cfg,
		ring:    ring,
		store:   store,
		metrics: m,
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		n.peers = append(n.peers, &peerState{addr: p})
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Listen, err)
		}
		n.ln = ln
	}
	return n, nil
}

// NodeID returns this node's ring identity.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// Ring returns the cluster's ownership ring.
func (n *Node) Ring() *Ring { return n.ring }

// Addr returns the bound replication listen address ("" when the
// receive side is disabled).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Start launches the acceptor and one sender loop per peer. Call at
// most once.
func (n *Node) Start() {
	if n.ln != nil {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.senderLoop(p)
	}
}

// Close stops every background loop, closes the listener and all open
// connections, and waits for the goroutines to exit. Safe to call more
// than once.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return nil
	}
	n.closed = true
	close(n.stop)
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	var firstErr error
	if n.ln != nil {
		if err := n.ln.Close(); err != nil {
			firstErr = err
		}
	}
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	return firstErr
}

// track registers a connection for Close teardown; it reports false —
// and closes the connection — when the node is already closing.
func (n *Node) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
	c.Close()
}

// --- receive side -----------------------------------------------------

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.track(conn) {
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// serveConn handles one inbound replication connection: hello exchange,
// then a loop of snapshot frames, each decoded through the single EIA
// checkpoint codec, folded into the store under one snapshot swap, and
// acked with the merge outcome.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	m := n.metrics

	conn.SetDeadline(time.Now().Add(n.cfg.IOTimeout))
	if _, err := readHello(conn); err != nil {
		m.RecvErrors.Inc()
		return
	}
	if err := writeHello(conn, n.cfg.NodeID); err != nil {
		m.RecvErrors.Inc()
		return
	}
	for {
		// Block indefinitely waiting for the next round's frame (the
		// sender idles between rounds), but once a frame starts, its body
		// and our ack must complete within the I/O timeout.
		conn.SetDeadline(time.Time{})
		payload, err := readFrame(conn)
		if err != nil {
			return // clean EOF between frames, a torn frame, or Close
		}
		conn.SetDeadline(time.Now().Add(n.cfg.IOTimeout))
		start := time.Now()
		remote := eia.NewSet(eia.Config{})
		if err := eia.ReadCheckpointInto(remote, bytes.NewReader(payload)); err != nil {
			m.RecvErrors.Inc()
			return
		}
		added, rehomed := n.store.MergeSet(remote)
		m.MergeLatency.ObserveDuration(time.Since(start))
		m.RecvRounds.Inc()
		m.RecvBytes.Add(int64(len(payload)))
		m.MergedAdded.Add(int64(added))
		m.MergedRehomed.Add(int64(rehomed))
		if err := writeAck(conn, mergeAck{
			Prefixes: n.store.Snapshot().Len(),
			Added:    added,
			Rehomed:  rehomed,
			Node:     n.cfg.NodeID,
		}); err != nil {
			return
		}
	}
}

// --- send side --------------------------------------------------------

// senderLoop pushes the local snapshot to one peer every Interval,
// backing off exponentially (up to MaxBackoff) while the peer is down.
// The loop owns the connection: it dials lazily, reuses the connection
// across rounds, and drops it on any error.
func (n *Node) senderLoop(p *peerState) {
	defer n.wg.Done()
	defer func() {
		if p.conn != nil {
			n.untrack(p.conn)
			p.conn = nil
		}
	}()
	delay := n.cfg.Interval
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-timer.C:
		}
		if err := n.replicateOnce(p); err != nil {
			p.noteFailure(err)
			n.metrics.SendErrors.Inc()
			n.metrics.setPeerUp(p.addr, false)
			delay *= 2
			if delay > n.cfg.MaxBackoff {
				delay = n.cfg.MaxBackoff
			}
		} else {
			n.metrics.SendRounds.Inc()
			n.metrics.setPeerUp(p.addr, true)
			delay = n.cfg.Interval
		}
		timer.Reset(delay)
	}
}

// replicateOnce ships one snapshot to p and waits for its ack. Any
// error tears the connection down; the next round redials.
func (n *Node) replicateOnce(p *peerState) (err error) {
	if p.conn == nil {
		conn, derr := net.DialTimeout("tcp", p.addr, n.cfg.DialTimeout)
		if derr != nil {
			return derr
		}
		if !n.track(conn) {
			return fmt.Errorf("cluster: node closed")
		}
		conn.SetDeadline(time.Now().Add(n.cfg.IOTimeout))
		if herr := n.handshake(conn); herr != nil {
			n.untrack(conn)
			return herr
		}
		p.conn = conn
	}
	defer func() {
		if err != nil && p.conn != nil {
			n.untrack(p.conn)
			p.conn = nil
		}
	}()

	// Serialize the published snapshot: an immutable Set, read without
	// blocking checks or the promotion writer.
	var buf bytes.Buffer
	if err := n.store.Snapshot().WriteCheckpoint(&buf); err != nil {
		return err
	}
	p.conn.SetDeadline(time.Now().Add(n.cfg.IOTimeout))
	if err := writeFrame(p.conn, buf.Bytes()); err != nil {
		return err
	}
	ack, err := readAck(p.conn)
	if err != nil {
		return err
	}
	p.noteSuccess(uint64(buf.Len()), ack)
	n.metrics.SendBytes.Add(int64(buf.Len()))
	return nil
}

// handshake runs the client side of the hello exchange.
func (n *Node) handshake(conn net.Conn) error {
	if err := writeHello(conn, n.cfg.NodeID); err != nil {
		return err
	}
	_, err := readHello(conn)
	return err
}

func (p *peerState) noteSuccess(payloadBytes uint64, ack mergeAck) {
	p.mu.Lock()
	p.up = true
	p.rounds++
	p.bytesSent += payloadBytes
	p.lastError = ""
	p.lastSuccess = time.Now()
	p.remote = ack
	p.hasRemote = true
	p.mu.Unlock()
}

func (p *peerState) noteFailure(err error) {
	p.mu.Lock()
	p.up = false
	p.errors++
	p.lastError = err.Error()
	p.mu.Unlock()
}

func (p *peerState) status() PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PeerStatus{
		Addr:        p.addr,
		Up:          p.up,
		Rounds:      p.rounds,
		Errors:      p.errors,
		BytesSent:   p.bytesSent,
		LastError:   p.lastError,
		LastSuccess: p.lastSuccess,
	}
	if p.hasRemote {
		st.RemoteNode = p.remote.Node
		st.RemotePrefixes = p.remote.Prefixes
	}
	return st
}

// Status snapshots the node's cluster view for the /cluster endpoint.
func (n *Node) Status() Status {
	local := n.store.Snapshot().Len()
	st := Status{
		Node:          n.cfg.NodeID,
		Listen:        n.Addr(),
		Interval:      n.cfg.Interval,
		Ring:          n.ring.Nodes(),
		LocalPrefixes: local,
		RecvRounds:    uint64(n.metrics.RecvRounds.Value()),
		RecvErrors:    uint64(n.metrics.RecvErrors.Value()),
		MergedAdded:   uint64(n.metrics.MergedAdded.Value()),
		MergedRehomed: uint64(n.metrics.MergedRehomed.Value()),
	}
	agg := ClusterAggregate{
		Nodes:          n.ring.Size(),
		PrefixesByNode: map[string]int{n.cfg.NodeID: local},
		Converged:      true,
	}
	for _, p := range n.peers {
		ps := p.status()
		st.Peers = append(st.Peers, ps)
		if ps.Up {
			agg.PeersUp++
		}
		if ps.RemoteNode != "" {
			agg.PrefixesByNode[ps.RemoteNode] = ps.RemotePrefixes
		} else {
			agg.PrefixesByNode[ps.Addr] = ps.RemotePrefixes
		}
		if !ps.Up || ps.RemotePrefixes != local {
			agg.Converged = false
		}
	}
	for _, c := range agg.PrefixesByNode {
		agg.TotalKnownPrefixes += c
	}
	st.Cluster = agg
	return st
}
