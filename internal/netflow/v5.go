// Package netflow implements the flow-export wire formats a border router
// emits and the router-side flow cache emulation the testbed replays
// through (paper §5.1.1). The original prototype spoke only NetFlow v5;
// this package decodes v5, template-based NetFlow v9 and IPFIX behind one
// version-agnostic entry point, netflow.Decode, so no consumer depends on
// a per-version wire type. v9 and IPFIX share one set walker and one
// encoder, TemplateEncoder; only their headers and export field tables
// differ. Encoding is version-agnostic via WireEncoder (NewV5Encoder, or
// NewV9Encoder / NewIPFIXEncoder for a TemplateEncoder) feeding the
// batching Exporter. Aggregate turns a packet trace into flows through
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

// v5Header is the 24-byte NetFlow v5 datagram header.
type v5Header struct {
	Count            uint16
	SysUptimeMS      uint32
	UnixSecs         uint32
	UnixNsecs        uint32
	FlowSequence     uint32
	EngineType       uint8
	EngineID         uint8
	SamplingInterval uint16
}

// v5Record is one 48-byte NetFlow v5 flow record.
type v5Record struct {
	SrcAddr  netaddr.IPv4
	DstAddr  netaddr.IPv4
	NextHop  netaddr.IPv4
	InputIf  uint16
	OutputIf uint16
	Packets  uint32
	Octets   uint32
	FirstMS  uint32 // sysUptime at first packet
	LastMS   uint32 // sysUptime at last packet
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Proto    uint8
	TOS      uint8
	SrcAS    uint16
	DstAS    uint16
	SrcMask  uint8
	DstMask  uint8
}

// v5Datagram is a decoded NetFlow v5 export datagram.
type v5Datagram struct {
	Header  v5Header
	Records []v5Record
}

// Marshal encodes d into the v5 wire format.
func (d *v5Datagram) Marshal() ([]byte, error) {
	if len(d.Records) > MaxRecords {
		return nil, fmt.Errorf("netflow: %d records exceeds max %d", len(d.Records), MaxRecords)
	}
	buf := make([]byte, v5HeaderSize+len(d.Records)*v5RecordSize)
	binary.BigEndian.PutUint16(buf[0:2], VersionV5)
	binary.BigEndian.PutUint16(buf[2:4], uint16(len(d.Records)))
	binary.BigEndian.PutUint32(buf[4:8], d.Header.SysUptimeMS)
	binary.BigEndian.PutUint32(buf[8:12], d.Header.UnixSecs)
	binary.BigEndian.PutUint32(buf[12:16], d.Header.UnixNsecs)
	binary.BigEndian.PutUint32(buf[16:20], d.Header.FlowSequence)
	buf[20] = d.Header.EngineType
	buf[21] = d.Header.EngineID
	binary.BigEndian.PutUint16(buf[22:24], d.Header.SamplingInterval)
	for i, r := range d.Records {
		off := v5HeaderSize + i*v5RecordSize
		b := buf[off : off+v5RecordSize]
		binary.BigEndian.PutUint32(b[0:4], uint32(r.SrcAddr))
		binary.BigEndian.PutUint32(b[4:8], uint32(r.DstAddr))
		binary.BigEndian.PutUint32(b[8:12], uint32(r.NextHop))
		binary.BigEndian.PutUint16(b[12:14], r.InputIf)
		binary.BigEndian.PutUint16(b[14:16], r.OutputIf)
		binary.BigEndian.PutUint32(b[16:20], r.Packets)
		binary.BigEndian.PutUint32(b[20:24], r.Octets)
		binary.BigEndian.PutUint32(b[24:28], r.FirstMS)
		binary.BigEndian.PutUint32(b[28:32], r.LastMS)
		binary.BigEndian.PutUint16(b[32:34], r.SrcPort)
		binary.BigEndian.PutUint16(b[34:36], r.DstPort)
		// b[36] pad1
		b[37] = r.TCPFlags
		b[38] = r.Proto
		b[39] = r.TOS
		binary.BigEndian.PutUint16(b[40:42], r.SrcAS)
		binary.BigEndian.PutUint16(b[42:44], r.DstAS)
		b[44] = r.SrcMask
		b[45] = r.DstMask
		// b[46:48] pad2
	}
	return buf, nil
}

// unmarshalV5 decodes a v5 datagram from raw bytes into a freshly
// allocated structure. The live ingest path uses decodeV5 (which fills a
// reusable DecodeBuffer) instead; this form remains for in-package tests.
func unmarshalV5(raw []byte) (*v5Datagram, error) {
	if len(raw) < v5HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortDatagram, len(raw))
	}
	if v := binary.BigEndian.Uint16(raw[0:2]); v != VersionV5 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	count := int(binary.BigEndian.Uint16(raw[2:4]))
	if count > MaxRecords || len(raw) < v5HeaderSize+count*v5RecordSize {
		return nil, fmt.Errorf("%w: count=%d len=%d", ErrBadCount, count, len(raw))
	}
	d := &v5Datagram{
		Header:  decodeV5Header(raw),
		Records: make([]v5Record, count),
	}
	for i := 0; i < count; i++ {
		d.Records[i] = decodeV5Record(raw[v5HeaderSize+i*v5RecordSize : v5HeaderSize+(i+1)*v5RecordSize])
	}
	return d, nil
}

func decodeV5Header(raw []byte) v5Header {
	return v5Header{
		Count:            binary.BigEndian.Uint16(raw[2:4]),
		SysUptimeMS:      binary.BigEndian.Uint32(raw[4:8]),
		UnixSecs:         binary.BigEndian.Uint32(raw[8:12]),
		UnixNsecs:        binary.BigEndian.Uint32(raw[12:16]),
		FlowSequence:     binary.BigEndian.Uint32(raw[16:20]),
		EngineType:       raw[20],
		EngineID:         raw[21],
		SamplingInterval: binary.BigEndian.Uint16(raw[22:24]),
	}
}

func decodeV5Record(b []byte) v5Record {
	return v5Record{
		SrcAddr:  netaddr.IPv4(binary.BigEndian.Uint32(b[0:4])),
		DstAddr:  netaddr.IPv4(binary.BigEndian.Uint32(b[4:8])),
		NextHop:  netaddr.IPv4(binary.BigEndian.Uint32(b[8:12])),
		InputIf:  binary.BigEndian.Uint16(b[12:14]),
		OutputIf: binary.BigEndian.Uint16(b[14:16]),
		Packets:  binary.BigEndian.Uint32(b[16:20]),
		Octets:   binary.BigEndian.Uint32(b[20:24]),
		FirstMS:  binary.BigEndian.Uint32(b[24:28]),
		LastMS:   binary.BigEndian.Uint32(b[28:32]),
		SrcPort:  binary.BigEndian.Uint16(b[32:34]),
		DstPort:  binary.BigEndian.Uint16(b[34:36]),
		TCPFlags: b[37],
		Proto:    b[38],
		TOS:      b[39],
		SrcAS:    binary.BigEndian.Uint16(b[40:42]),
		DstAS:    binary.BigEndian.Uint16(b[42:44]),
		SrcMask:  b[44],
		DstMask:  b[45],
	}
}

// ToFlowRecord converts a wire record to the analysis flow model, resolving
// sysUptime-relative timestamps against the export header and boot time.
func (r v5Record) ToFlowRecord(hdr v5Header, inputIf uint16) flow.Record {
	return r.toFlowRecordAt(hdr.bootTime(), inputIf)
}

// bootTime resolves the exporter's boot time from the header clock pair.
// Hot decode loops compute it once per datagram; every record of the
// datagram then resolves its uptime-relative stamps against it.
func (hdr v5Header) bootTime() time.Time {
	export := time.Unix(int64(hdr.UnixSecs), int64(hdr.UnixNsecs)).UTC()
	return export.Add(-time.Duration(hdr.SysUptimeMS) * time.Millisecond)
}

// toFlowRecordAt is ToFlowRecord with the per-datagram boot time already
// resolved.
func (r v5Record) toFlowRecordAt(boot time.Time, inputIf uint16) flow.Record {
	var out flow.Record
	r.fillFlowRecord(&out, boot, inputIf)
	return out
}

// fillFlowRecord writes the converted record into *dst, overwriting every
// field — the decode loop converts straight into the reused record slice
// without staging a temporary.
func (r v5Record) fillFlowRecord(dst *flow.Record, boot time.Time, inputIf uint16) {
	*dst = flow.Record{
		Key: flow.Key{
			Src:     r.SrcAddr.Addr(),
			Dst:     r.DstAddr.Addr(),
			Proto:   r.Proto,
			SrcPort: r.SrcPort,
			DstPort: r.DstPort,
			TOS:     r.TOS,
			InputIf: inputIf,
		},
		Packets: r.Packets,
		Bytes:   r.Octets,
		Start:   boot.Add(time.Duration(r.FirstMS) * time.Millisecond),
		End:     boot.Add(time.Duration(r.LastMS) * time.Millisecond),
		SrcAS:   r.SrcAS,
		DstAS:   r.DstAS,
		SrcMask: r.SrcMask,
		DstMask: r.DstMask,
		TCPFlag: r.TCPFlags,
	}
}

// decodeV5FlowRecord decodes one 48-byte wire record straight into *dst,
// fusing decodeV5Record and fillFlowRecord for the hot ingest loop so no
// intermediate v5Record is staged. Field offsets must stay in lockstep
// with decodeV5Record; TestDecodeV5MatchesUnmarshal pins the equivalence.
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

// v5FromFlowRecord converts an analysis flow record to a wire record, given
// the exporter's boot time for sysUptime-relative stamps.
func v5FromFlowRecord(fr flow.Record, boot time.Time) v5Record {
	src, _ := fr.Key.Src.V4() // v5 is a v4-only wire format; encoders gate on family
	dst, _ := fr.Key.Dst.V4()
	return v5Record{
		SrcAddr:  src,
		DstAddr:  dst,
		InputIf:  fr.Key.InputIf,
		Packets:  fr.Packets,
		Octets:   fr.Bytes,
		FirstMS:  uint32(fr.Start.Sub(boot).Milliseconds()),
		LastMS:   uint32(fr.End.Sub(boot).Milliseconds()),
		SrcPort:  fr.Key.SrcPort,
		DstPort:  fr.Key.DstPort,
		TCPFlags: fr.TCPFlag,
		Proto:    fr.Key.Proto,
		TOS:      fr.Key.TOS,
		SrcAS:    fr.SrcAS,
		DstAS:    fr.DstAS,
		SrcMask:  fr.SrcMask,
		DstMask:  fr.DstMask,
	}
}
