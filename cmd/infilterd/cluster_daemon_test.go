package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/testutil"
)

// reserveTCPAddr grabs a free loopback TCP address and releases it, so a
// daemon can be started with a concrete -cluster-listen address that
// peers already know.
func reserveTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// clusterStatusDoc mirrors the /cluster JSON shape the tests care about.
type clusterStatusDoc struct {
	Node          string `json:"node"`
	LocalPrefixes int    `json:"local_prefixes"`
	Peers         []struct {
		Addr   string `json:"addr"`
		Up     bool   `json:"up"`
		Errors uint64 `json:"errors"`
	} `json:"peers"`
	Cluster struct {
		Nodes     int  `json:"nodes"`
		PeersUp   int  `json:"peers_up"`
		Converged bool `json:"converged"`
	} `json:"cluster"`
}

// fetchClusterStatus GETs /cluster from a daemon's admin endpoint.
func fetchClusterStatus(adminAddr string) (clusterStatusDoc, error) {
	var doc clusterStatusDoc
	resp, err := http.Get("http://" + adminAddr + "/cluster")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("/cluster: %s", resp.Status)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// awaitClusterPrefixes polls /cluster until the daemon holds want EIA
// prefixes.
func awaitClusterPrefixes(t *testing.T, adminAddr string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		doc, err := fetchClusterStatus(adminAddr)
		if err == nil && doc.LocalPrefixes >= want {
			if doc.LocalPrefixes > want {
				t.Fatalf("node %s holds %d prefixes, want %d", doc.Node, doc.LocalPrefixes, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node at %s never reached %d prefixes (last: %+v, err %v)", adminAddr, want, doc, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func writeEIAFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eia.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterTwoNodeConvergenceMatchesUnionDaemon is the cluster-mode
// acceptance test: two daemons preloaded with different halves of peer
// 1's EIA state replicate snapshots both ways; once /cluster reports
// convergence, a probe stream (one legal source from each half, plus
// spoofed sources) must produce on BOTH nodes exactly the verdict stream
// a single daemon preloaded with the union produces. Replication being
// down-level or divergent would alert on the other node's legal half.
func TestClusterTwoNodeConvergenceMatchesUnionDaemon(t *testing.T) {
	addrA, addrB := reserveTCPAddr(t), reserveTCPAddr(t)
	fileA := writeEIAFile(t, "1 61.0.0.0/11")
	fileB := writeEIAFile(t, "1 88.0.0.0/11")
	fileU := writeEIAFile(t, "1 61.0.0.0/11", "1 88.0.0.0/11")

	// One alert consumer per daemon so verdict streams count separately.
	newConsumer := func() (*atomic.Int64, int) {
		var n atomic.Int64
		c := idmef.NewConsumer(func(idmef.Alert) { n.Add(1) })
		port, err := c.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return &n, port
	}
	alertsA, alertPortA := newConsumer()
	alertsB, alertPortB := newConsumer()
	alertsU, alertPortU := newConsumer()

	base := []string{"-ports", "0", "-mode", "BI", "-stats", "1h", "-admin-addr", "127.0.0.1:0"}
	mk := func(eiaFile string, alertPort int, extra ...string) []string {
		args := append([]string{"-eia-file", eiaFile, "-alert", fmt.Sprintf("127.0.0.1:%d", alertPort)}, base...)
		return append(args, extra...)
	}

	// Node A also checkpoints, so its final flush must carry what it
	// merged from B, not only its own preload.
	stateA := t.TempDir()
	portsA, adminA, cancelA, doneA := startDaemon(t, mk(fileA, alertPortA,
		"-cluster-listen", addrA, "-cluster-peers", addrB, "-replicate-interval", "50ms",
		"-state-dir", stateA))
	stopA := sync.OnceFunc(func() { stopDaemon(t, cancelA, doneA) })
	defer stopA()
	portsB, adminB, cancelB, doneB := startDaemon(t, mk(fileB, alertPortB,
		"-cluster-listen", addrB, "-cluster-peers", addrA, "-replicate-interval", "50ms"))
	defer stopDaemon(t, cancelB, doneB)
	portsU, _, cancelU, doneU := startDaemon(t, mk(fileU, alertPortU))
	defer stopDaemon(t, cancelU, doneU)

	// Both nodes must fold the other's half: 2 prefixes each.
	awaitClusterPrefixes(t, adminA, 2)
	awaitClusterPrefixes(t, adminB, 2)
	docA, err := fetchClusterStatus(adminA)
	if err != nil {
		t.Fatal(err)
	}
	if docA.Cluster.Nodes != 2 || len(docA.Peers) != 1 || !docA.Peers[0].Up {
		t.Errorf("node A cluster status %+v, want 2-node ring with its peer up", docA)
	}

	// Identical probe stream to every daemon: a legal source from A's
	// half, one from B's half, and spoofed sources. BI mode: every
	// non-match alerts, so the alert count IS the verdict stream.
	const spoofedPerDatagram = 10
	probe := func(port int) {
		var legal []flow.Record
		legal = append(legal,
			testRec("61.0.7.1", 9, 4040, flow.ProtoTCP, 80),
			testRec("88.0.7.1", 9, 4040, flow.ProtoTCP, 80))
		sendRaw(t, port, v5Raw(t, legal))
		var spoofed []flow.Record
		for j := 0; j < spoofedPerDatagram; j++ {
			spoofed = append(spoofed, testRec(fmt.Sprintf("99.0.1.%d", j+1), 1, 404, flow.ProtoUDP, 1434))
		}
		sendRaw(t, port, v5Raw(t, spoofed))
	}
	probe(portsA[0])
	probe(portsB[0])
	probe(portsU[0])

	awaitAlerts := func(name string, n *atomic.Int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for n.Load() < spoofedPerDatagram {
			if time.Now().After(deadline) {
				t.Fatalf("%s: got %d alerts, want %d", name, n.Load(), spoofedPerDatagram)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	awaitAlerts("union daemon", alertsU)
	awaitAlerts("node A", alertsA)
	awaitAlerts("node B", alertsB)
	// Settle, then require the streams to be *identical*: exactly the
	// spoofed flows, nothing from the other node's legal half.
	time.Sleep(200 * time.Millisecond)
	if a, b, u := alertsA.Load(), alertsB.Load(), alertsU.Load(); a != u || b != u || u != spoofedPerDatagram {
		t.Errorf("verdict streams differ: node A %d, node B %d, union %d alerts, want all %d",
			a, b, u, spoofedPerDatagram)
	}

	// The replication series must be live on /metrics.
	resp, err := http.Get("http://" + adminA + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "infilter_cluster_replication_rounds_total") {
		t.Error("/metrics lacks infilter_cluster_replication_rounds_total")
	}

	// The checkpoint writer reads the live snapshot: B's prefix, merged
	// after start-up, is in A's shutdown flush.
	stopA()
	ckpt, err := os.ReadFile(filepath.Join(stateA, "eia.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ckpt), "\n1 4 88.0.0.0/11\n") {
		t.Errorf("node A's checkpoint lacks the row merged from node B:\n%s", ckpt)
	}
}

// TestClusterPeerDownKeepsLocalVerdicts: a cluster node whose only peer
// never existed keeps classifying local traffic; /cluster reports the
// peer down and accumulating errors.
func TestClusterPeerDownKeepsLocalVerdicts(t *testing.T) {
	deadPeer := reserveTCPAddr(t)
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(idmef.Alert) { alerts.Add(1) })
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	ports, admin, cancel, done := startDaemon(t, []string{
		"-eia-file", writeEIAFile(t, "1 61.0.0.0/11"),
		"-alert", fmt.Sprintf("127.0.0.1:%d", alertPort),
		"-ports", "0", "-mode", "BI", "-stats", "1h", "-admin-addr", "127.0.0.1:0",
		"-cluster-listen", reserveTCPAddr(t), "-cluster-peers", deadPeer,
		"-replicate-interval", "20ms",
	})
	defer stopDaemon(t, cancel, done)

	// Replication must be failing...
	deadline := time.Now().Add(10 * time.Second)
	for {
		doc, err := fetchClusterStatus(admin)
		if err == nil && len(doc.Peers) == 1 && !doc.Peers[0].Up && doc.Peers[0].Errors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer never reported down with errors (last: %+v)", doc)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...while local verdicts flow unaffected.
	sendRaw(t, ports[0], v5Raw(t, []flow.Record{testRec("99.9.9.9", 1, 404, flow.ProtoUDP, 1434)}))
	deadline = time.Now().Add(10 * time.Second)
	for alerts.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no verdict while the cluster peer is down")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterThreeNodeKillOneConverges is the 3-node in-process e2e run
// under the race detector by scripts/check.sh: three daemons form a full
// mesh, each contributing one EIA prefix; one node is killed
// mid-replication once its state has reached at least one survivor, and
// the survivors must still converge to the full 3-way union — dead
// node's state included, relayed transitively through merges — while
// /cluster shows the dead peer down. The whole cycle runs under the
// goroutine-leak gate.
func TestClusterThreeNodeKillOneConverges(t *testing.T) {
	testutil.ExpectNoGoroutineGrowth(t, func() {
		addrs := []string{reserveTCPAddr(t), reserveTCPAddr(t), reserveTCPAddr(t)}
		files := []string{
			writeEIAFile(t, "1 61.0.0.0/11"),
			writeEIAFile(t, "1 70.0.0.0/11"),
			writeEIAFile(t, "1 88.0.0.0/11"),
		}
		admins := make([]string, 3)
		cancels := make([]context.CancelFunc, 3)
		dones := make([]chan error, 3)
		for i := 0; i < 3; i++ {
			peers := make([]string, 0, 2)
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			_, admin, cancel, done := startDaemon(t, []string{
				"-eia-file", files[i],
				"-ports", "0", "-mode", "BI", "-stats", "1h", "-admin-addr", "127.0.0.1:0",
				"-cluster-listen", addrs[i], "-cluster-peers", strings.Join(peers, ","),
				"-replicate-interval", "30ms",
			})
			admins[i] = admin
			cancels[i] = cancel
			dones[i] = done
		}

		// Wait until node 0 has folded everything (including node 2's
		// prefix), then kill node 2 — replication is still running, and
		// node 1 may or may not have node 2's state yet.
		awaitClusterPrefixes(t, admins[0], 3)
		stopDaemon(t, cancels[2], dones[2])

		// Survivors must converge to all 3 prefixes regardless: node 1
		// gets node 2's prefix from node 0's snapshots (merge transitivity).
		awaitClusterPrefixes(t, admins[0], 3)
		awaitClusterPrefixes(t, admins[1], 3)

		// Node 0 must eventually report the dead peer down.
		deadline := time.Now().Add(15 * time.Second)
		for {
			doc, err := fetchClusterStatus(admins[0])
			if err == nil && doc.Cluster.Nodes == 3 {
				down := 0
				for _, p := range doc.Peers {
					if p.Addr == addrs[2] && !p.Up {
						down++
					}
				}
				if down == 1 {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("dead peer never reported down (last: %+v)", doc)
			}
			time.Sleep(10 * time.Millisecond)
		}

		stopDaemon(t, cancels[0], dones[0])
		stopDaemon(t, cancels[1], dones[1])
	})
}
