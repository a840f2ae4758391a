// Scan detection scenario: a Slammer-style network scan (one UDP port,
// many hosts) and an nmap Idlescan host scan (many ports, one host) pass
// through the Enhanced InFilter pipeline; the Scan Analysis stage catches
// both even though every probe is a single innocuous-looking packet.
package main

import (
	"fmt"
	"log"
	"time"

	"infilter/internal/analysis"
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

	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed: 1, Start: start, Flows: 1000,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("61.0.0.0/11")},
		DstPrefix:   target,
	})
	if err != nil {
		return err
	}
	var labeled []analysis.LabeledRecord
	for _, r := range netflow.Aggregate(pkts, 1) {
		labeled = append(labeled, analysis.LabeledRecord{Peer: 1, Record: r})
	}
	engine, err := analysis.Train(analysis.Config{Mode: analysis.ModeEnhanced}, labeled)
	if err != nil {
		return err
	}

	scenarios := []struct {
		name string
		at   trace.AttackType
	}{
		{"slammer network scan (udp/1434 across hosts)", trace.AttackSlammer},
		{"nmap idlescan host scan (port sweep on one host)", trace.AttackIdlescan},
	}
	for i, sc := range scenarios {
		attack, err := trace.Generate(sc.at, trace.AttackConfig{
			Seed:  int64(10 + i),
			Start: start.Add(time.Duration(i+1) * time.Hour),
			// Spoofed source outside every EIA set.
			Src:       netaddr.MustParseAddr("198.51.100.77"),
			DstPrefix: target,
		})
		if err != nil {
			return err
		}
		recs := netflow.Aggregate(attack, 1)
		decisions := make([]analysis.Decision, len(recs))
		engine.ProcessBatch(1, recs, decisions)
		flagged, stages := 0, map[idmef.Stage]int{}
		for _, d := range decisions {
			if d.Attack {
				flagged++
				stages[d.Stage]++
			}
		}
		fmt.Printf("%-50s %d/%d flows flagged, stages=%v\n", sc.name, flagged, len(recs), stages)
	}
	return nil
}
