package cluster

import (
	"bytes"
	"net"
	"testing"
	"time"

	"infilter/internal/eia"
	"infilter/internal/netaddr"
	"infilter/internal/testutil"
)

func testNode(t *testing.T, set *eia.Set, peers ...string) (*Node, *eia.Store) {
	t.Helper()
	store := eia.NewStore(set)
	n, err := NewNode(Config{
		Listen:      "127.0.0.1:0",
		Peers:       peers,
		Interval:    20 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		DialTimeout: time.Second,
		IOTimeout:   2 * time.Second,
	}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, store
}

func storeBytes(t *testing.T, st *eia.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Snapshot().WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTwoNodeConvergence is the core replication loop: two nodes with
// disjoint EIA state, peered at each other, must converge to the same
// byte-identical checkpoint — the Merge of both sides.
func TestTwoNodeConvergence(t *testing.T) {
	setA := eia.NewSet(eia.Config{})
	setA.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16"))
	setA.AddPrefix(2, netaddr.MustParsePrefix("2001:db8::/48"))
	setB := eia.NewSet(eia.Config{})
	setB.AddPrefix(3, netaddr.MustParsePrefix("192.0.2.0/24"))
	setB.AddPrefix(4, netaddr.MustParsePrefix("2001:db8:ff::/64"))

	// The merged fixpoint both stores must reach.
	mergedA := eia.NewSet(eia.Config{})
	mergedA.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16"))
	mergedA.AddPrefix(2, netaddr.MustParsePrefix("2001:db8::/48"))
	mergedB := eia.NewSet(eia.Config{})
	mergedB.AddPrefix(3, netaddr.MustParsePrefix("192.0.2.0/24"))
	mergedB.AddPrefix(4, netaddr.MustParsePrefix("2001:db8:ff::/64"))
	var want bytes.Buffer
	if err := eia.Merge(mergedA, mergedB).WriteCheckpoint(&want); err != nil {
		t.Fatal(err)
	}

	nodeA, storeA := testNode(t, setA)
	nodeB, storeB := testNode(t, setB, nodeA.Addr())
	// A learns B's address only after B binds; rebuild A with the peer.
	nodeA.Close()
	storeA = eia.NewStore(mustSetClone(t, setA))
	nodeA2, err := NewNode(Config{
		Listen:      "127.0.0.1:0",
		Peers:       []string{nodeB.Addr()},
		Interval:    20 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		DialTimeout: time.Second,
		IOTimeout:   2 * time.Second,
	}, storeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA2.Close()

	nodeA2.Start()
	nodeB.Start()

	// B pushes to the *original* nodeA listener which is closed — but A2
	// pushes to B, and B's state reaches A2 only via B→A2 replication,
	// which B doesn't have configured. So assert one-way first: B must
	// converge to the merge (it receives A2's snapshots and A2 reads back
	// B's post-merge count via acks).
	waitFor(t, "node B to fold node A's snapshot", 3*time.Second, func() bool {
		return bytes.Equal(storeBytes(t, storeB), want.Bytes())
	})
	waitFor(t, "node A to see B's post-merge prefix count", 3*time.Second, func() bool {
		st := nodeA2.Status()
		return len(st.Peers) == 1 && st.Peers[0].Up && st.Peers[0].RemotePrefixes == 4
	})
	if st := nodeA2.Status(); st.Peers[0].RemoteNode != nodeB.NodeID() {
		t.Errorf("ack node ID = %q, want %q", st.Peers[0].RemoteNode, nodeB.NodeID())
	}
}

// mustSetClone round-trips a set through the checkpoint codec — the
// canonical way to copy one.
func mustSetClone(t *testing.T, s *eia.Set) *eia.Set {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	c := eia.NewSet(eia.Config{})
	if err := eia.ReadCheckpointInto(c, &buf); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBidirectionalConvergence wires a full mesh by pre-allocating both
// listen ports, so each node starts already knowing its peer.
func TestBidirectionalConvergence(t *testing.T) {
	addrA, closeA := reservePort(t)
	addrB, closeB := reservePort(t)
	closeA()
	closeB()

	setA := eia.NewSet(eia.Config{})
	setA.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16"))
	setA.AddPrefix(3, netaddr.MustParsePrefix("172.16.0.0/12"))
	setB := eia.NewSet(eia.Config{})
	setB.AddPrefix(2, netaddr.MustParsePrefix("10.1.0.0/16")) // conflict: 1 wins
	setB.AddPrefix(4, netaddr.MustParsePrefix("2001:db8::/48"))

	var want bytes.Buffer
	if err := eia.Merge(mustSetClone(t, setA), mustSetClone(t, setB)).WriteCheckpoint(&want); err != nil {
		t.Fatal(err)
	}

	mk := func(listen, peer string, set *eia.Set) (*Node, *eia.Store) {
		store := eia.NewStore(set)
		n, err := NewNode(Config{
			Listen:      listen,
			Peers:       []string{peer},
			Interval:    20 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
			DialTimeout: time.Second,
			IOTimeout:   2 * time.Second,
		}, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.Start()
		return n, store
	}
	nodeA, storeA := mk(addrA, addrB, setA)
	nodeB, storeB := mk(addrB, addrA, setB)

	waitFor(t, "both stores to reach the merged fixpoint", 5*time.Second, func() bool {
		return bytes.Equal(storeBytes(t, storeA), want.Bytes()) &&
			bytes.Equal(storeBytes(t, storeB), want.Bytes())
	})

	// Both rings agree on membership and therefore on ownership.
	if got, want := nodeA.Ring().Nodes(), nodeB.Ring().Nodes(); len(got) != 2 || len(want) != 2 ||
		got[0] != want[0] || got[1] != want[1] {
		t.Errorf("ring membership disagrees: A=%v B=%v", got, want)
	}
	for p := uint16(1); p <= 16; p++ {
		if nodeA.Ring().Owner(peerASExporter, uint32(p)) != nodeB.Ring().Owner(peerASExporter, uint32(p)) {
			t.Errorf("nodes disagree on owner of peer AS %d", p)
		}
	}

	waitFor(t, "status to report a converged cluster", 5*time.Second, func() bool {
		st := nodeA.Status()
		return st.Cluster.Converged && st.Cluster.PeersUp == 1 &&
			st.Cluster.TotalKnownPrefixes == 2*st.LocalPrefixes
	})
}

func reservePort(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), func() { ln.Close() }
}

// TestPeerDownDoesNotBlockLocal proves graceful degradation: with its
// only peer unreachable, a node keeps answering checks, counts send
// errors, and marks the peer down — and recovers once the peer appears.
func TestPeerDownDoesNotBlockLocal(t *testing.T) {
	peerAddr, release := reservePort(t)
	release() // nothing listening there yet

	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("10.0.0.0/8"))
	node, store := testNode(t, set, peerAddr)
	node.Start()

	waitFor(t, "send errors against the dead peer", 3*time.Second, func() bool {
		return node.Status().Peers[0].Errors > 0
	})
	st := node.Status()
	if st.Peers[0].Up {
		t.Error("dead peer reported up")
	}
	if st.Cluster.Converged {
		t.Error("cluster reported converged with its only peer down")
	}
	// Local checking is unaffected while replication fails.
	if v := store.Check(1, netaddr.MustParseAddr("10.1.2.3")); v != eia.Match {
		t.Errorf("Check during peer outage = %v, want match", v)
	}

	// Bring the peer up at the reserved address; backoff must recover.
	peerSet := eia.NewSet(eia.Config{})
	peerStore := eia.NewStore(peerSet)
	peer, err := NewNode(Config{Listen: peerAddr, Interval: 20 * time.Millisecond}, peerStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.Start()

	waitFor(t, "replication to recover after the peer came up", 5*time.Second, func() bool {
		s := node.Status()
		return s.Peers[0].Up && s.Peers[0].Rounds > 0
	})
	waitFor(t, "late-started peer to learn the snapshot", 3*time.Second, func() bool {
		return peerStore.Snapshot().Len() == 1
	})
}

// TestReceiverRejectsBadMagic: a stranger speaking the wrong protocol is
// dropped at the hello and counted as a receive error.
func TestReceiverRejectsBadMagic(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	node, store := testNode(t, set)
	node.Start()

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("receiver answered a bad-magic hello instead of hanging up")
	}
	waitFor(t, "receive error counter", 3*time.Second, func() bool {
		return node.metrics.RecvErrors.Value() > 0
	})
	if store.Snapshot().Len() != 0 {
		t.Errorf("store gained %d prefixes from a rejected connection", store.Snapshot().Len())
	}
}

// TestReceiverRejectsGarbageSnapshot: a well-formed hello followed by a
// frame that isn't a checkpoint must not corrupt the store.
func TestReceiverRejectsGarbageSnapshot(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("10.0.0.0/8"))
	node, store := testNode(t, set)
	node.Start()
	before := storeBytes(t, store)

	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, "stranger"); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(conn); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, []byte("not a checkpoint\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage frame counted as receive error", 3*time.Second, func() bool {
		return node.metrics.RecvErrors.Value() > 0
	})
	if !bytes.Equal(storeBytes(t, store), before) {
		t.Error("garbage snapshot changed the store")
	}
}

// TestClusterGoroutineHygiene runs a full two-node converge-and-close
// cycle under the goroutine-leak gate.
func TestClusterGoroutineHygiene(t *testing.T) {
	testutil.ExpectNoGoroutineGrowth(t, func() {
		addrA, closeA := reservePort(t)
		addrB, closeB := reservePort(t)
		closeA()
		closeB()

		mk := func(listen, peer string, seed netaddr.Prefix, as eia.PeerAS) (*Node, *eia.Store) {
			set := eia.NewSet(eia.Config{})
			set.AddPrefix(as, seed)
			store := eia.NewStore(set)
			n, err := NewNode(Config{
				Listen:     listen,
				Peers:      []string{peer},
				Interval:   10 * time.Millisecond,
				MaxBackoff: 50 * time.Millisecond,
			}, store, nil)
			if err != nil {
				t.Fatal(err)
			}
			n.Start()
			return n, store
		}
		nodeA, storeA := mk(addrA, addrB, netaddr.MustParsePrefix("10.0.0.0/8"), 1)
		nodeB, storeB := mk(addrB, addrA, netaddr.MustParsePrefix("192.0.2.0/24"), 2)
		waitFor(t, "cross-replication", 5*time.Second, func() bool {
			return storeA.Snapshot().Len() == 2 && storeB.Snapshot().Len() == 2
		})
		if err := nodeA.Close(); err != nil {
			t.Errorf("close A: %v", err)
		}
		if err := nodeB.Close(); err != nil {
			t.Errorf("close B: %v", err)
		}
		// Double-close is safe.
		nodeA.Close()
	})
}

// A repeated peer would replicate to one address twice and register its
// peer-up series twice; NewNode refuses it up front.
func TestNewNodeRejectsRepeatedPeer(t *testing.T) {
	cfg := Config{NodeID: "127.0.0.1:7001", Peers: []string{"127.0.0.1:7002", "127.0.0.1:7002"}}
	if n, err := NewNode(cfg, eia.NewStore(eia.NewSet(eia.Config{})), nil); err == nil {
		n.Close()
		t.Fatal("NewNode accepted a repeated peer")
	}
}
