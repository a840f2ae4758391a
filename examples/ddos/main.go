// DDoS scenario: a TFN2K flood with spoofed sources enters the target ISP
// through one peer AS while benign traffic flows normally. The engine's
// IDMEF alerts travel over a real TCP connection to a consumer, as they
// would from infilterd to the Alert UI.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/dagflow"
	"infilter/internal/eia"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	peer1 := netaddr.MustParsePrefix("61.0.0.0/11")
	peer2 := netaddr.MustParsePrefix("70.0.0.0/11")

	// Train on both peers' benign traffic.
	var labeled []analysis.LabeledRecord
	for i, block := range []netaddr.Prefix{peer1, peer2} { // fixed order: NNS training is order-sensitive
		peer := eia.PeerAS(i + 1)
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed: int64(peer), Start: start, Flows: 800,
			SrcPrefixes: []netaddr.Prefix{block}, DstPrefix: target,
		})
		if err != nil {
			return err
		}
		for _, r := range netflow.Aggregate(pkts, 1) {
			labeled = append(labeled, analysis.LabeledRecord{Peer: peer, Record: r})
		}
	}
	engine, err := analysis.Train(analysis.Config{Mode: analysis.ModeEnhanced}, labeled)
	if err != nil {
		return err
	}

	// Wire a real IDMEF consumer.
	var alerts atomic.Int64
	consumer := idmef.NewConsumer(func(a idmef.Alert) {
		if alerts.Add(1) <= 3 {
			fmt.Printf("  alert %s: stage=%s %s -> %s\n",
				a.MessageID, a.Assessment.Stage, a.Source.Address, a.Target.Address)
		}
	})
	port, err := consumer.Listen(0)
	if err != nil {
		return err
	}
	defer consumer.Close()
	sender, err := idmef.Dial(fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return err
	}
	defer sender.Close()
	engine.SetAlertSink(func(a idmef.Alert) {
		if err := sender.Send(a); err != nil {
			log.Printf("send alert: %v", err)
		}
	})

	// The TFN2K flood: sources spoofed from peer 2's space, entering via
	// peer AS 1's border router (Dagflow does the spoofing).
	flood, err := trace.Generate(trace.AttackTFN2K, trace.AttackConfig{
		Seed: 9, Start: start.Add(time.Hour),
		Src:       netaddr.MustParseAddr("203.0.113.99"),
		DstPrefix: target, Scale: 2,
	})
	if err != nil {
		return err
	}
	spoof, err := dagflow.NewSpoofPolicy([]netaddr.Prefix{peer2}, 5)
	if err != nil {
		return err
	}
	inst := dagflow.New(dagflow.Config{
		Name: "tfn2k", Policy: spoof, InputIf: 1,
	}, start)
	dgs, err := inst.Replay(flood)
	if err != nil {
		return err
	}
	db := netflow.NewDecodeBuffer(nil)
	attackFlows := 0
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, db)
		if err != nil {
			return err
		}
		// One datagram's records are one batch, as infilterd hands them over.
		engine.ProcessBatch(1, msg.Records, nil)
		attackFlows += len(msg.Records)
	}
	flagged := engine.Stats().Attacks

	// Give the TCP stream a moment to drain.
	deadline := time.Now().Add(3 * time.Second)
	for alerts.Load() < int64(flagged) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("TFN2K flood: %d/%d flood flows flagged, %d IDMEF alerts delivered\n",
		flagged, attackFlows, alerts.Load())
	fmt.Printf("stage breakdown: %v\n", engine.Stats().ByStage)
	return nil
}
