package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/dagflow"
	"infilter/internal/eia"
	"infilter/internal/flowtools"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

// TestEndToEndPipeline drives the complete deployment over real sockets:
// Dagflow replays normal and spoofed attack traffic as NetFlow v5
// datagrams over UDP, a flow-tools collector demultiplexes two emulated
// border routers by port, the Enhanced InFilter engine analyzes the flows,
// and IDMEF alerts arrive at a TCP consumer — the full Figure 9
// architecture in one test.
func TestEndToEndPipeline(t *testing.T) {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	peerBlocks := map[eia.PeerAS]netaddr.Prefix{
		1: netaddr.MustParsePrefix("61.0.0.0/11"),
		2: netaddr.MustParsePrefix("70.0.0.0/11"),
	}

	// Train the engine offline (§5.2 training phase).
	var labeled []analysis.LabeledRecord
	for peer, block := range peerBlocks {
		pkts := genNormal(t, int64(peer), 700, block, target, start)
		for _, r := range netflow.Aggregate(pkts, 1) {
			labeled = append(labeled, analysis.LabeledRecord{Peer: peer, Record: r})
		}
	}
	engine, err := analysis.Train(analysis.Config{Mode: analysis.ModeEnhanced}, labeled)
	if err != nil {
		t.Fatal(err)
	}

	// Alert UI over TCP.
	var (
		alertMu sync.Mutex
		alerts  []idmef.Alert
	)
	consumer := idmef.NewConsumer(func(a idmef.Alert) {
		alertMu.Lock()
		defer alertMu.Unlock()
		alerts = append(alerts, a)
	})
	alertPort, err := consumer.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	sender, err := idmef.Dial(fmt.Sprintf("127.0.0.1:%d", alertPort))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	engine.SetAlertSink(func(a idmef.Alert) {
		if err := sender.Send(a); err != nil {
			t.Errorf("send alert: %v", err)
		}
	})

	// NetFlow collector: two UDP ports, one per emulated border router.
	var (
		engMu     sync.Mutex
		processed int
	)
	peerOfPort := map[int]eia.PeerAS{}
	collector := flowtools.New(flowtools.Config{MaxRecords: 1}, func(b flowtools.Batch) {
		peer := peerOfPort[b.Port]
		engMu.Lock()
		defer engMu.Unlock()
		engine.ProcessBatch(peer, b.Records, nil)
		processed += len(b.Records)
	})
	defer collector.Close()
	port1, err := collector.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	port2, err := collector.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	peerOfPort[port1], peerOfPort[port2] = 1, 2

	// Benign replay into both routers.
	wantFlows := 0
	for peer, block := range peerBlocks {
		pkts := genNormal(t, 50+int64(peer), 150, block, target, start.Add(time.Hour))
		inst := dagflow.New(dagflow.Config{
			Name:    fmt.Sprintf("S%d", peer),
			InputIf: uint16(peer),
			Cache:   netflow.CacheConfig{ExpireOnFINRST: true},
		}, start)
		dgs, err := inst.Replay(pkts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dgs {
			wantFlows += d.Flows
		}
		dst := port1
		if peer == 2 {
			dst = port2
		}
		if err := dagflow.SendUDP(fmt.Sprintf("127.0.0.1:%d", dst), dgs); err != nil {
			t.Fatal(err)
		}
	}

	// Attack replay: slammer spoofed from peer 2's space entering router 1.
	attack, err := trace.Generate(trace.AttackSlammer, trace.AttackConfig{
		Seed: 9, Start: start.Add(2 * time.Hour),
		Src:       netaddr.MustParseAddr("203.0.113.5"),
		DstPrefix: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	spoof, err := dagflow.NewSpoofPolicy([]netaddr.Prefix{peerBlocks[2]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	atk := dagflow.New(dagflow.Config{
		Name: "atk", Policy: spoof, InputIf: 1,
	}, start)
	dgs, err := atk.Replay(attack)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dgs {
		wantFlows += d.Flows
	}
	if err := dagflow.SendUDP(fmt.Sprintf("127.0.0.1:%d", port1), dgs); err != nil {
		t.Fatal(err)
	}

	// Wait for the pipeline to drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		engMu.Lock()
		done := processed >= wantFlows
		engMu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			engMu.Lock()
			t.Fatalf("processed %d/%d flows before deadline", processed, wantFlows)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every flow is processed, so the engine has sent every alert it will
	// send; wait until all of them have crossed the TCP consumer (benign
	// FP alerts arrive first — counting at the first alert would miss the
	// slammer alerts still in flight).
	engMu.Lock()
	wantAlerts := engine.Stats().Attacks
	engMu.Unlock()
	if wantAlerts == 0 {
		t.Fatal("no attacks detected")
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		alertMu.Lock()
		n := len(alerts)
		alertMu.Unlock()
		if n >= wantAlerts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d IDMEF alerts delivered", n, wantAlerts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	alertMu.Lock()
	defer alertMu.Unlock()
	spoofedAlerts := 0
	for _, a := range alerts {
		// The attack's signature: a peer-2 source observed at peer 1.
		if a.Assessment.PeerAS == 1 &&
			peerBlocks[2].Contains(netaddr.MustParseAddr(a.Source.Address)) {
			spoofedAlerts++
		}
	}
	// The slammer burst dominates the alert stream; a few benign false
	// positives (holdout flows from untrained /24s) are expected and fine.
	if spoofedAlerts < 5 {
		t.Errorf("only %d/%d alerts reference the spoofed range", spoofedAlerts, len(alerts))
	}
	if fp := len(alerts) - spoofedAlerts; fp > spoofedAlerts {
		t.Errorf("false-positive alerts (%d) outnumber attack alerts (%d)", fp, spoofedAlerts)
	}
	// Benign traffic should be largely clean: the engine's false alarms
	// must stay far below its attack detections.
	engMu.Lock()
	st := engine.Stats()
	engMu.Unlock()
	if st.Attacks == 0 || st.Attacks > st.Processed/4 {
		t.Errorf("stats look wrong: %+v", st)
	}
}

func genNormal(t *testing.T, seed int64, flows int, src, dst netaddr.Prefix, start time.Time) []packet.Packet {
	t.Helper()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: seed, Start: start, Flows: flows,
		SrcPrefixes: []netaddr.Prefix{src}, DstPrefix: dst,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}
