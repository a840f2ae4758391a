// Package packet models the IP packets (either family) the testbed's
// traffic generators emit and the trace format (a DAG-file substitute)
// Dagflow replays. Only the header fields the flow accounting and attack
// shapes depend on are modeled; payload is represented by length alone.
package packet

import (
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// TCP flag bits (subset used by flow expiry and attack shapes).
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// Packet is one IPv4 packet observation: timestamped headers plus total
// on-wire length.
type Packet struct {
	Time     time.Time
	Src      netaddr.Addr
	Dst      netaddr.Addr
	Proto    uint8
	SrcPort  uint16 // TCP/UDP source port; ICMP type<<8|code
	DstPort  uint16 // TCP/UDP destination port; 0 for ICMP
	TOS      uint8
	Length   uint16 // total IP length in bytes
	TCPFlags uint8  // valid when Proto == flow.ProtoTCP
	FragOff  uint16 // fragment offset in 8-byte units; nonzero marks fragments
	MoreFrag bool   // IP "more fragments" bit
	TTL      uint8  // IP time-to-live (hop limit); 0 means unknown
}

// FlowKey derives the NetFlow key of p as seen on input interface ifIndex.
func (p Packet) FlowKey(ifIndex uint16) flow.Key {
	return flow.Key{
		Src:     p.Src,
		Dst:     p.Dst,
		Proto:   p.Proto,
		SrcPort: p.SrcPort,
		DstPort: p.DstPort,
		TOS:     p.TOS,
		InputIf: ifIndex,
	}
}
