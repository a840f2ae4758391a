// Package netflow implements the flow-export wire formats a border router
// emits and the router-side flow cache emulation the testbed replays
// through (paper §5.1.1). The original prototype spoke only NetFlow v5;
// this package decodes v5, template-based NetFlow v9 and IPFIX behind one
// version-agnostic entry point, netflow.Decode, so no consumer depends on
// a per-version wire type. v9 and IPFIX share one set walker and one
// encoder, TemplateEncoder; only their headers and export field tables
// differ. Encoding is version-agnostic via WireEncoder: NewV5Encoder, or
// NewV9Encoder / NewIPFIXEncoder for a TemplateEncoder. Each encoder
// writes flow.Record fields straight into wire bytes, and Decode reads
// them straight back. Aggregate turns a packet trace into flows through
// the router cache.
package netflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// Export format version words, as they appear in the first two bytes of
// every export datagram.
const (
	VersionV5    = 5
	VersionV9    = 9
	VersionIPFIX = 10
)

// Wire-format sizes for NetFlow v5.
const (
	v5HeaderSize = 24
	v5RecordSize = 48

	// MaxRecords is the flow-record capacity of one v5 export datagram,
	// per the v5 spec. The v9/IPFIX encoders keep the same batch size so
	// replayed streams stay comparable across versions.
	MaxRecords = 30
)

// Errors returned by the decoders.
var (
	ErrShortDatagram = errors.New("netflow: datagram too short")
	ErrBadVersion    = errors.New("netflow: unsupported version")
	ErrBadCount      = errors.New("netflow: record count disagrees with length")
	ErrBadSet        = errors.New("netflow: malformed flowset")
)

// V5Encoder emits NetFlow v5 datagrams. v5 is a v4-only wire format: the
// encoder takes v4 records only (a v6 address would go out as 0.0.0.0),
// so callers that may hold v6 flows check the family first, as
// dagflow.Instance.Replay does.
type V5Encoder struct {
	boot     time.Time
	engineID uint8
	seq      uint32
}

// NewV5Encoder returns a v5 encoder whose sysUptime is measured from boot.
func NewV5Encoder(boot time.Time, engineID uint8) *V5Encoder {
	return &V5Encoder{boot: boot, engineID: engineID}
}

func (e *V5Encoder) Version() uint16 { return VersionV5 }

// Encode appends the 24-byte header and each 48-byte record straight
// into the datagram buffer, in wire order. The engine type, sampling
// interval, next hop, output interface and pad fields are written as
// zero.
func (e *V5Encoder) Encode(recs []flow.Record, now time.Time) []WireDatagram {
	var out []WireDatagram
	for len(recs) > 0 {
		n := min(len(recs), MaxRecords)
		b := make([]byte, 0, v5HeaderSize+n*v5RecordSize)
		b = binary.BigEndian.AppendUint16(b, VersionV5)
		b = binary.BigEndian.AppendUint16(b, uint16(n))
		b = binary.BigEndian.AppendUint32(b, uint32(now.Sub(e.boot).Milliseconds())) // sysUptime
		b = binary.BigEndian.AppendUint32(b, uint32(now.Unix()))
		b = binary.BigEndian.AppendUint32(b, uint32(now.Nanosecond()))
		b = binary.BigEndian.AppendUint32(b, e.seq)
		b = append(b, 0, e.engineID, 0, 0) // engine type, engine id, sampling interval
		for _, r := range recs[:n] {
			src, _ := r.Key.Src.V4()
			dst, _ := r.Key.Dst.V4()
			b = binary.BigEndian.AppendUint32(b, uint32(src))
			b = binary.BigEndian.AppendUint32(b, uint32(dst))
			b = binary.BigEndian.AppendUint32(b, 0) // next hop
			b = binary.BigEndian.AppendUint16(b, r.Key.InputIf)
			b = binary.BigEndian.AppendUint16(b, 0) // output interface
			b = binary.BigEndian.AppendUint32(b, r.Packets)
			b = binary.BigEndian.AppendUint32(b, r.Bytes)
			b = binary.BigEndian.AppendUint32(b, uint32(r.Start.Sub(e.boot).Milliseconds()))
			b = binary.BigEndian.AppendUint32(b, uint32(r.End.Sub(e.boot).Milliseconds()))
			b = binary.BigEndian.AppendUint16(b, r.Key.SrcPort)
			b = binary.BigEndian.AppendUint16(b, r.Key.DstPort)
			b = append(b, 0, r.TCPFlag, r.Key.Proto, r.Key.TOS) // pad, TCP flags, protocol, TOS
			b = binary.BigEndian.AppendUint16(b, r.SrcAS)
			b = binary.BigEndian.AppendUint16(b, r.DstAS)
			b = append(b, r.SrcMask, r.DstMask, 0, 0) // masks, pad
		}
		e.seq += uint32(n)
		out = append(out, WireDatagram{Raw: b, Flows: n})
		recs = recs[n:]
	}
	return out
}

func (e *V5Encoder) Flush(time.Time) []WireDatagram { return nil }

// decodeV5 fills buf with the records of a v5 datagram, reading the
// header words in place: count, sysUptime, export seconds and
// nanoseconds, flow sequence and engine id.
func decodeV5(raw []byte, buf *DecodeBuffer) (Message, error) {
	if len(raw) < v5HeaderSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortDatagram, len(raw))
	}
	count := int(binary.BigEndian.Uint16(raw[2:4]))
	if count > MaxRecords || len(raw) < v5HeaderSize+count*v5RecordSize {
		return Message{}, fmt.Errorf("%w: count=%d len=%d", ErrBadCount, count, len(raw))
	}
	nsecs := binary.BigEndian.Uint32(raw[12:16])
	if nsecs >= 1e9 {
		return Message{}, fmt.Errorf("netflow: v5 header unix_nsecs %d out of range", nsecs)
	}
	buf.cache.metrics.DatagramsV5.Inc()

	if cap(buf.recs) < count {
		buf.recs = make([]flow.Record, count)
	}
	buf.recs = buf.recs[:count]
	export := time.Unix(int64(binary.BigEndian.Uint32(raw[8:12])), int64(nsecs)).UTC()
	// Records stamp sysUptime; resolve the exporter's boot time once per
	// datagram, not per record.
	boot := export.Add(-time.Duration(binary.BigEndian.Uint32(raw[4:8])) * time.Millisecond)
	for i := 0; i < count; i++ {
		decodeV5FlowRecord(&buf.recs[i], raw[v5HeaderSize+i*v5RecordSize:v5HeaderSize+(i+1)*v5RecordSize], boot)
	}

	seq, engineID := binary.BigEndian.Uint32(raw[16:20]), uint32(raw[21])
	gap := buf.cache.seqCheck(domainKey{exporter: buf.exporter, domain: engineID}, seq, uint32(count))
	return Message{
		Version:    VersionV5,
		Exporter:   buf.exporter,
		Domain:     engineID,
		ExportTime: export,
		Sequence:   seq,
		SeqGap:     gap,
		Records:    buf.recs,
	}, nil
}

// decodeV5FlowRecord decodes one 48-byte wire record straight into *dst,
// overwriting every field, so the decode loop fills the reused record
// slice without staging a temporary.
func decodeV5FlowRecord(dst *flow.Record, b []byte, boot time.Time) {
	*dst = flow.Record{
		Key: flow.Key{
			Src:     netaddr.IPv4(binary.BigEndian.Uint32(b[0:4])).Addr(),
			Dst:     netaddr.IPv4(binary.BigEndian.Uint32(b[4:8])).Addr(),
			Proto:   b[38],
			SrcPort: binary.BigEndian.Uint16(b[32:34]),
			DstPort: binary.BigEndian.Uint16(b[34:36]),
			TOS:     b[39],
			InputIf: binary.BigEndian.Uint16(b[12:14]),
		},
		Packets: binary.BigEndian.Uint32(b[16:20]),
		Bytes:   binary.BigEndian.Uint32(b[20:24]),
		Start:   boot.Add(time.Duration(binary.BigEndian.Uint32(b[24:28])) * time.Millisecond),
		End:     boot.Add(time.Duration(binary.BigEndian.Uint32(b[28:32])) * time.Millisecond),
		SrcAS:   binary.BigEndian.Uint16(b[40:42]),
		DstAS:   binary.BigEndian.Uint16(b[42:44]),
		SrcMask: b[44],
		DstMask: b[45],
		TCPFlag: b[37],
	}
}
