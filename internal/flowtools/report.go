package flowtools

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// GroupField selects one flow key field for report grouping, mirroring
// flow-report's ip-source-address, ip-destination-address, input-interface,
// source-as etc. options.
type GroupField int

// Grouping fields.
const (
	GroupSrcAddr GroupField = iota + 1
	GroupDstAddr
	GroupProto
	GroupSrcPort
	GroupDstPort
	GroupTOS
	GroupInputIf
	GroupSrcAS
	GroupDstAS
)

var groupFieldNames = map[GroupField]string{
	GroupSrcAddr: "ip-source-address",
	GroupDstAddr: "ip-destination-address",
	GroupProto:   "ip-protocol",
	GroupSrcPort: "ip-source-port",
	GroupDstPort: "ip-destination-port",
	GroupTOS:     "ip-tos",
	GroupInputIf: "input-interface",
	GroupSrcAS:   "source-as",
	GroupDstAS:   "destination-as",
}

// String returns the flow-report style name of f.
func (f GroupField) String() string {
	if n, ok := groupFieldNames[f]; ok {
		return n
	}
	return fmt.Sprintf("group-field(%d)", int(f))
}

func fieldValue(r flow.Record, f GroupField) string {
	switch f {
	case GroupSrcAddr:
		return r.Key.Src.String()
	case GroupDstAddr:
		return r.Key.Dst.String()
	case GroupProto:
		return strconv.Itoa(int(r.Key.Proto))
	case GroupSrcPort:
		return strconv.Itoa(int(r.Key.SrcPort))
	case GroupDstPort:
		return strconv.Itoa(int(r.Key.DstPort))
	case GroupTOS:
		return strconv.Itoa(int(r.Key.TOS))
	case GroupInputIf:
		return strconv.Itoa(int(r.Key.InputIf))
	case GroupSrcAS:
		return strconv.Itoa(int(r.SrcAS))
	case GroupDstAS:
		return strconv.Itoa(int(r.DstAS))
	default:
		return "?"
	}
}

// GroupStats aggregates the flows sharing one grouping key.
type GroupStats struct {
	Key        string
	Flows      int
	Packets    uint64
	Bytes      uint64
	Duration   time.Duration // summed active duration
	AvgBitRate float64       // mean of per-flow bit rates
	AvgPktRate float64       // mean of per-flow packet rates
}

// Report groups records by the given fields and aggregates statistics per
// group, sorted by group key for deterministic output.
func Report(recs []flow.Record, fields []GroupField) []GroupStats {
	groups := make(map[string]*GroupStats)
	for _, r := range recs {
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = fieldValue(r, f)
		}
		key := strings.Join(parts, "|")
		g, ok := groups[key]
		if !ok {
			g = &GroupStats{Key: key}
			groups[key] = g
		}
		g.Flows++
		g.Packets += uint64(r.Packets)
		g.Bytes += uint64(r.Bytes)
		g.Duration += r.Duration()
		g.AvgBitRate += r.BitRate()
		g.AvgPktRate += r.PacketRate()
	}
	out := make([]GroupStats, 0, len(groups))
	for _, g := range groups {
		g.AvgBitRate /= float64(g.Flows)
		g.AvgPktRate /= float64(g.Flows)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Filter returns the records matching pred, preserving order.
func Filter(recs []flow.Record, pred func(flow.Record) bool) []flow.Record {
	var out []flow.Record
	for _, r := range recs {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// asciiFields is the column count of the ASCII interchange format: one
// flow per line, comma-separated:
//
//	src,dst,proto,srcPort,dstPort,tos,inputIf,packets,bytes,startUnixNano,endUnixNano,srcAS,dstAS
const asciiFields = 13

// ReadASCII parses records from the ASCII interchange format. Each
// numeric column is parsed at the width of its record field (8 bits for
// proto and tos, 16 for ports, interface and ASes, 32 for the counters,
// signed 64 for the timestamps), so an out-of-range value is an error
// naming its line and column, never a wrapped number.
func ReadASCII(r io.Reader) ([]flow.Record, error) {
	var out []flow.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != asciiFields {
			return nil, fmt.Errorf("flowtools: ascii line %d: %d fields, want %d", line, len(parts), asciiFields)
		}
		src, err := netaddr.ParseAddr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("flowtools: ascii line %d: %w", line, err)
		}
		dst, err := netaddr.ParseAddr(parts[1])
		if err != nil {
			return nil, fmt.Errorf("flowtools: ascii line %d: %w", line, err)
		}
		// The composite literal below calls num and stamp left to right,
		// so perr holds the first bad column.
		var perr error
		fail := func(col int, err error) {
			if perr == nil {
				perr = fmt.Errorf("flowtools: ascii line %d column %d: %w", line, col+1, err)
			}
		}
		num := func(col, bits int) uint64 {
			v, err := strconv.ParseUint(parts[col], 10, bits)
			if err != nil {
				fail(col, err)
			}
			return v
		}
		stamp := func(col int) time.Time {
			v, err := strconv.ParseInt(parts[col], 10, 64)
			if err != nil {
				fail(col, err)
			}
			return time.Unix(0, v).UTC()
		}
		rec := flow.Record{
			Key: flow.Key{
				Src: src, Dst: dst,
				Proto:   uint8(num(2, 8)),
				SrcPort: uint16(num(3, 16)),
				DstPort: uint16(num(4, 16)),
				TOS:     uint8(num(5, 8)),
				InputIf: uint16(num(6, 16)),
			},
			Packets: uint32(num(7, 32)),
			Bytes:   uint32(num(8, 32)),
			Start:   stamp(9),
			End:     stamp(10),
			SrcAS:   uint16(num(11, 16)),
			DstAS:   uint16(num(12, 16)),
		}
		if perr != nil {
			return nil, perr
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flowtools: read ascii: %w", err)
	}
	return out, nil
}
