package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"infilter/internal/blocks"
	"infilter/internal/dagflow"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

// meanInterarrival matches the trace generator default so phase spans can
// be sized.
const meanInterarrival = 10 * time.Millisecond

// phaseSpan returns the wall-clock span one phase of a source's traffic
// occupies, with slack so phases do not overlap.
func phaseSpan(flowsPerPhase int) time.Duration {
	return time.Duration(flowsPerPhase)*meanInterarrival + 5*time.Second
}

// trainDetector builds the NNS detector from the training flows.
func trainDetector(cfg Config, seed int64, training []flow.Record) (*nns.Detector, error) {
	return nns.Train(nns.DetectorConfig{
		Params: nns.Params{
			D: nns.DefaultD, M1: 1, M2: 12, M3: 3,
			Seed: seed ^ 0x6b0c,
		},
		Ranges: nns.DefaultRanges(),
	}, training)
}

// normalSourceFlows replays source src's benign traffic through its
// emulated border router and returns the labeled flows plus the packet
// volume (the base for attack budgets).
func normalSourceFlows(cfg Config, seed int64, src int) ([]labeledFlow, int, error) {
	phases, err := sourcePhases(cfg, src)
	if err != nil {
		return nil, 0, err
	}
	flowsPerPhase := cfg.NormalFlowsPerSource / len(phases)
	if flowsPerPhase <= 0 {
		flowsPerPhase = 1
	}
	span := phaseSpan(flowsPerPhase)

	var (
		out     []labeledFlow
		packets int
	)
	for k, prefixes := range phases {
		pkts, err := trace.GenerateNormal(trace.NormalConfig{
			Seed:        seed + int64(src)*101 + int64(k)*13,
			Start:       experimentEpoch.Add(time.Duration(k) * span),
			Flows:       flowsPerPhase,
			SrcPrefixes: prefixes,
			DstPrefix:   TargetNetwork,
		})
		if err != nil {
			return nil, 0, err
		}
		packets += len(pkts)
		recs, err := replayThroughRouter(fmt.Sprintf("S%d-p%d", src, k), pkts, nil, uint16(src), netflow.VersionV5)
		if err != nil {
			return nil, 0, err
		}
		for _, r := range recs {
			out = append(out, labeledFlow{peer: eia.PeerAS(src), rec: r})
		}
	}
	return out, packets, nil
}

// sourcePhases returns, per allocation phase, the address-block prefixes
// source src draws from. Without route instability there is a single
// phase using the source's Table 3 blocks; with instability the four
// Table 2-style allocations rotate in.
func sourcePhases(cfg Config, src int) ([][]netaddr.Prefix, error) {
	if cfg.RouteChangePercent <= 0 {
		alloc, err := blocks.EIAAllocation(src)
		if err != nil {
			return nil, err
		}
		return [][]netaddr.Prefix{subBlockPrefixes(alloc)}, nil
	}
	sched, err := blocks.NewSchedule(cfg.RouteChangePercent, 4)
	if err != nil {
		return nil, err
	}
	out := make([][]netaddr.Prefix, 0, len(sched.Allocations))
	for _, alloc := range sched.Allocations {
		sa := alloc[src-1]
		prefixes := subBlockPrefixes(sa.NormalSet)
		prefixes = append(prefixes, subBlockPrefixes(sa.ChangeSet)...)
		out = append(out, prefixes)
	}
	return out, nil
}

func subBlockPrefixes(sbs []blocks.SubBlock) []netaddr.Prefix {
	out := make([]netaddr.Prefix, len(sbs))
	for i, sb := range sbs {
		out[i] = sb.Prefix()
	}
	return out
}

// attackSetFlows launches one attack set against peer AS s: the full
// 12-attack catalog at least once, then repeated round-robin until the
// configured fraction of the border router's packet volume is consumed.
// Sources are spoofed from the 900 sub-blocks belonging to other peers,
// exactly as §6.3.1 describes.
func attackSetFlows(cfg Config, seed int64, s, normalPkts int, attackID *int) ([]labeledFlow, map[int]trace.AttackType, error) {
	if cfg.AttackPercent <= 0 {
		return nil, nil, nil
	}
	budget := normalPkts * cfg.AttackPercent / 100
	foreign := foreignPrefixes(s)
	rng := rand.New(rand.NewSource(seed ^ int64(s)<<16))
	order := rng.Perm(trace.NumAttackTypes)
	catalog := trace.AllAttacks()

	// The replay window attacks land in.
	phases := 1
	if cfg.RouteChangePercent > 0 {
		phases = 4
	}
	flowsPerPhase := cfg.NormalFlowsPerSource / phases
	if flowsPerPhase <= 0 {
		flowsPerPhase = 1
	}
	window := time.Duration(phases) * phaseSpan(flowsPerPhase)

	var (
		out      []labeledFlow
		launched = make(map[int]trace.AttackType)
		packets  int
	)
	for i := 0; ; i++ {
		// Always complete at least one full catalog pass (the paper uses
		// all 12 attacks); beyond that, stop once the budget is consumed.
		if i >= trace.NumAttackTypes && packets >= budget {
			break
		}
		if i >= 20*trace.NumAttackTypes {
			break // safety bound for huge budgets in tiny configs
		}
		info := catalog[order[i%trace.NumAttackTypes]]
		*attackID++
		id := *attackID
		launchAt := experimentEpoch.Add(time.Duration(rng.Int63n(int64(window * 9 / 10))))
		pkts, err := trace.Generate(info.Type, trace.AttackConfig{
			Seed:      seed + int64(id)*37,
			Start:     launchAt,
			Src:       netaddr.IPv4(rng.Uint32()).Addr(),
			DstPrefix: TargetNetwork,
		})
		if err != nil {
			return nil, nil, err
		}
		packets += len(pkts)
		spoof, err := dagflow.NewSpoofPolicy(foreign, seed+int64(id))
		if err != nil {
			return nil, nil, err
		}
		recs, err := replayThroughRouter(fmt.Sprintf("atk%d", id), pkts, spoof, uint16(s), netflow.VersionV5)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range recs {
			out = append(out, labeledFlow{peer: eia.PeerAS(s), rec: r, attackID: id})
		}
		launched[id] = info.Type
	}
	return out, launched, nil
}

// foreignPrefixes returns the sub-block prefixes of every peer except s.
func foreignPrefixes(s int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, blocks.NumUsedSubBlocks-blocks.SubBlocksPerSource)
	for as := 1; as <= blocks.DefaultSources; as++ {
		if as == s {
			continue
		}
		alloc, err := blocks.EIAAllocation(as)
		if err != nil {
			continue
		}
		out = append(out, subBlockPrefixes(alloc)...)
	}
	return out
}

// replayThroughRouter pushes a packet trace through one Dagflow instance
// (source rewriting + router flow cache + export in the given wire
// version) and decodes the exported datagrams back into flow records —
// the same path a record takes from a real border router to the analysis
// module.
func replayThroughRouter(name string, pkts []packet.Packet, policy dagflow.SourcePolicy, inputIf, version uint16) ([]flow.Record, error) {
	in := dagflow.New(dagflow.Config{
		Name:    name,
		Policy:  policy,
		InputIf: inputIf,
		Cache:   netflow.CacheConfig{ExpireOnFINRST: true},
		Version: version,
	}, experimentEpoch.Add(-time.Hour))
	dgs, err := in.Replay(pkts)
	if err != nil {
		return nil, err
	}
	db := netflow.NewDecodeBuffer(nil)
	var out []flow.Record
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, db)
		if err != nil {
			return nil, err
		}
		out = append(out, msg.Records...)
	}
	return out, nil
}
