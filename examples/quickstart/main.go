// Quickstart: train an Enhanced InFilter engine on synthetic normal
// traffic for two peer ASes, then process a benign flow and a spoofed
// Slammer probe and print the decisions.
package main

import (
	"fmt"
	"log"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
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

	// 1. Generate labeled normal traffic for two peer ASes.
	var labeled []analysis.LabeledRecord
	for i, block := range []netaddr.Prefix{ // fixed order: NNS training is order-sensitive
		netaddr.MustParsePrefix("61.0.0.0/11"),
		netaddr.MustParsePrefix("70.0.0.0/11"),
	} {
		peer := eia.PeerAS(i + 1)
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed:        int64(peer),
			Start:       start,
			Flows:       800,
			SrcPrefixes: []netaddr.Prefix{block},
			DstPrefix:   target,
		})
		if err != nil {
			return err
		}
		for _, r := range netflow.Aggregate(pkts, 1) {
			labeled = append(labeled, analysis.LabeledRecord{Peer: peer, Record: r})
		}
	}

	// 2. Train the Enhanced InFilter engine (EIA sets + NNS clusters).
	engine, err := analysis.Train(analysis.Config{Mode: analysis.ModeEnhanced}, labeled)
	if err != nil {
		return err
	}
	eiaSet := engine.EIASet().Snapshot()
	fmt.Printf("trained: %d EIA prefixes across peers %v\n", eiaSet.Len(), eiaSet.Peers())

	// 3. A benign flow from a subnet peer 1's training traffic used,
	// arriving at peer 1 as expected.
	var knownSrc netaddr.Addr
	for _, lr := range labeled {
		if lr.Peer == 1 {
			knownSrc = lr.Record.Key.Src
			break
		}
	}
	benign := flow.Record{
		Key: flow.Key{
			Src: knownSrc, Dst: target.Nth(9),
			Proto: flow.ProtoTCP, SrcPort: 30000, DstPort: 80,
		},
		Packets: 12, Bytes: 9000,
		Start: start.Add(time.Hour), End: start.Add(time.Hour + 2*time.Second),
	}
	var d [1]analysis.Decision
	engine.ProcessBatch(1, []flow.Record{benign}, d[:])
	fmt.Printf("benign http flow:  verdict=%v attack=%v\n", d[0].Verdict, d[0].Attack)

	// 4. A Slammer burst spoofed from peer 2's space, entering at peer 1.
	pkts, err := trace.Generate(trace.AttackSlammer, trace.AttackConfig{
		Seed: 7, Start: start.Add(2 * time.Hour),
		Src:       netaddr.MustParseAddr("70.9.9.9"),
		DstPrefix: target,
	})
	if err != nil {
		return err
	}
	engine.ProcessBatch(1, netflow.Aggregate(pkts, 1), nil)
	st := engine.Stats() // the benign flow above raised nothing
	fmt.Printf("spoofed slammer:   %d flows flagged (stages: %v)\n", st.Attacks, st.ByStage)
	return nil
}
