// Traceback scenario: attacks with spoofed sources enter the ISP through
// two different peer ASes while benign traffic flows everywhere. The
// traceback tracker aggregates the engine's IDMEF alerts per ingress and
// names the border routers the attack traffic is actually using — the
// extension the paper sketches in its conclusions.
package main

import (
	"fmt"
	"log"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/trace"
	"infilter/internal/traceback"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	// Peer AS i+1's block, in a fixed order: NNS training is order-sensitive.
	peerBlocks := []netaddr.Prefix{
		netaddr.MustParsePrefix("61.0.0.0/11"),
		netaddr.MustParsePrefix("70.0.0.0/11"),
		netaddr.MustParsePrefix("88.0.0.0/11"),
	}

	var labeled []analysis.LabeledRecord
	for i, block := range peerBlocks {
		peer := eia.PeerAS(i + 1)
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed: int64(peer), Start: start, Flows: 600,
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

	tracker := traceback.New(traceback.Config{MinShare: 0.1})
	engine.SetAlertSink(tracker.Observe)
	clock := start.Add(time.Hour)
	engine.SetClock(func() time.Time { return clock })

	// Attacks enter via peers 1 and 3; peer 2 carries only benign traffic.
	scenarios := []struct {
		at   trace.AttackType
		peer eia.PeerAS
		src  string
	}{
		{trace.AttackSlammer, 1, "70.9.9.9"},
		{trace.AttackTFN2K, 3, "61.8.8.8"},
		{trace.AttackIdlescan, 1, "88.7.7.7"},
	}
	for i, sc := range scenarios {
		pkts, err := trace.Generate(sc.at, trace.AttackConfig{
			Seed: int64(20 + i), Start: clock.Add(time.Duration(i) * time.Minute),
			Src: netaddr.MustParseAddr(sc.src), DstPrefix: target,
		})
		if err != nil {
			return err
		}
		engine.ProcessBatch(sc.peer, netflow.Aggregate(pkts, 1), nil)
	}
	// Benign flows at peer 2 from its own space must not implicate it.
	benign, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 99, Start: clock, Flows: 200,
		SrcPrefixes: []netaddr.Prefix{peerBlocks[1]}, DstPrefix: target,
	})
	if err != nil {
		return err
	}
	engine.ProcessBatch(2, netflow.Aggregate(benign, 1), nil)

	fmt.Printf("alerts in window: %d\n", tracker.WindowSize(clock))
	fmt.Println("traceback verdict — attack entry points:")
	for _, in := range tracker.EntryPoints(clock) {
		fmt.Printf("  %s (stages: %v)\n", in, in.ByStage)
	}
	return nil
}
