// Route-change scenario: a subnet that used to enter the ISP through peer
// AS 2 starts arriving through peer AS 1 after an inter-domain routing
// change. Basic InFilter flags every one of its flows (false positives);
// Enhanced InFilter vets them through NNS, and after enough vouched flows
// promotes the subnet into peer 1's EIA set so suspicion stops entirely.
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
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	target := netaddr.MustParsePrefix("192.0.2.0/24")
	moved := netaddr.MustParsePrefix("70.4.4.0/24") // the subnet that re-homes

	var labeled []analysis.LabeledRecord
	for i, block := range []netaddr.Prefix{ // fixed order: NNS training is order-sensitive
		netaddr.MustParsePrefix("61.0.0.0/11"),
		netaddr.MustParsePrefix("70.0.0.0/11"),
	} {
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

	// The re-homed subnet's post-change traffic, arriving at peer 1.
	movedPkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 77, Start: start.Add(time.Hour), Flows: 250,
		SrcPrefixes: []netaddr.Prefix{moved}, DstPrefix: target,
	})
	if err != nil {
		return err
	}
	movedFlows := netflow.Aggregate(movedPkts, 1)

	for _, mode := range []analysis.Mode{analysis.ModeBasic, analysis.ModeEnhanced} {
		engine, err := analysis.Train(analysis.Config{Mode: mode}, labeled)
		if err != nil {
			return err
		}
		decisions := make([]analysis.Decision, len(movedFlows))
		engine.ProcessBatch(1, movedFlows, decisions)
		fp, promotedAt := 0, -1
		for i, d := range decisions {
			if d.Attack {
				fp++
			}
			if d.Promoted && promotedAt < 0 {
				promotedAt = i
			}
		}
		fmt.Printf("%s: %d/%d re-homed flows flagged as attacks", mode, fp, len(movedFlows))
		if promotedAt >= 0 {
			fmt.Printf("; subnet promoted into peer 1's EIA set after %d vouched flows", promotedAt+1)
		}
		fmt.Println()
		if mode == analysis.ModeEnhanced {
			if v := engine.EIASet().Check(1, moved.Nth(42)); v == eia.Match {
				fmt.Println("EI: post-promotion, the moved subnet now matches at peer 1 — no more suspicion")
			}
		}
	}
	return nil
}
