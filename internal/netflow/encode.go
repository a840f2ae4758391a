package netflow

import (
	"encoding/binary"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// WireDatagram is one encoded export datagram ready for the wire, with
// the number of flow records it carries so consumers can count flows
// without decoding.
type WireDatagram struct {
	Raw   []byte
	Flows int
}

// WireEncoder turns batches of flow records into export datagrams of one
// wire format, maintaining the format's sequence and template state.
// Implementations are not safe for concurrent use.
type WireEncoder interface {
	// Version reports the export format version word the encoder emits.
	Version() uint16
	// Encode emits the datagrams carrying recs, chunked at MaxRecords per
	// datagram. Template-based encoders may emit standalone template
	// datagrams alongside (or withhold them, see SetTemplateDelay).
	Encode(recs []flow.Record, now time.Time) []WireDatagram
	// Flush emits withheld encoder state — a delayed template datagram —
	// and may return nil.
	Flush(now time.Time) []WireDatagram
}

// exportTemplateID is the v4 data set id TemplateEncoder announces in
// both versions (the first id outside the reserved range);
// exportTemplateID6 is the v6 template. Records are exported through the template of their
// own family, and each template is announced lazily before the first
// data set that references it — an all-v4 record stream therefore
// produces byte-identical output to the pre-dual-stack encoders.
const (
	exportTemplateID  = 256
	exportTemplateID6 = 257
)

// v9ExportFields is the template this package's v9 encoder announces: the
// v5 feature set expressed as IANA information elements plus the flow's
// minimum TTL, with sysUptime-relative timestamps (40 bytes per record).
var v9ExportFields = []TemplateField{
	{ID: ieSourceIPv4Address, Length: 4},
	{ID: ieDestIPv4Address, Length: 4},
	{ID: ieSourceTransportPort, Length: 2},
	{ID: ieDestTransportPort, Length: 2},
	{ID: ieProtocolIdentifier, Length: 1},
	{ID: ieIPClassOfService, Length: 1},
	{ID: ieTCPControlBits, Length: 1},
	{ID: iePacketDeltaCount, Length: 4},
	{ID: ieOctetDeltaCount, Length: 4},
	{ID: ieFlowStartSysUpTime, Length: 4},
	{ID: ieFlowEndSysUpTime, Length: 4},
	{ID: ieBGPSourceAS, Length: 2},
	{ID: ieBGPDestinationAS, Length: 2},
	{ID: ieSourceIPv4PrefixLen, Length: 1},
	{ID: ieDestIPv4PrefixLen, Length: 1},
	{ID: ieMinimumTTL, Length: 1},
	{ID: ieIngressInterface, Length: 2},
}

// ipfixExportFields swaps the relative timestamps for the absolute
// millisecond elements IPFIX exporters prefer (48 bytes per record).
var ipfixExportFields = []TemplateField{
	{ID: ieSourceIPv4Address, Length: 4},
	{ID: ieDestIPv4Address, Length: 4},
	{ID: ieSourceTransportPort, Length: 2},
	{ID: ieDestTransportPort, Length: 2},
	{ID: ieProtocolIdentifier, Length: 1},
	{ID: ieIPClassOfService, Length: 1},
	{ID: ieTCPControlBits, Length: 1},
	{ID: iePacketDeltaCount, Length: 4},
	{ID: ieOctetDeltaCount, Length: 4},
	{ID: ieFlowStartMilliseconds, Length: 8},
	{ID: ieFlowEndMilliseconds, Length: 8},
	{ID: ieBGPSourceAS, Length: 2},
	{ID: ieBGPDestinationAS, Length: 2},
	{ID: ieSourceIPv4PrefixLen, Length: 1},
	{ID: ieDestIPv4PrefixLen, Length: 1},
	{ID: ieMinimumTTL, Length: 1},
	{ID: ieIngressInterface, Length: 2},
}

// v9ExportFields6 is the v6 flavor of the v9 export template: the v4
// address and prefix-length elements swapped for their v6 counterparts,
// plus the IPv6 flow label (68 bytes per record).
var v9ExportFields6 = []TemplateField{
	{ID: ieSourceIPv6Address, Length: 16},
	{ID: ieDestIPv6Address, Length: 16},
	{ID: ieSourceTransportPort, Length: 2},
	{ID: ieDestTransportPort, Length: 2},
	{ID: ieProtocolIdentifier, Length: 1},
	{ID: ieIPClassOfService, Length: 1},
	{ID: ieTCPControlBits, Length: 1},
	{ID: iePacketDeltaCount, Length: 4},
	{ID: ieOctetDeltaCount, Length: 4},
	{ID: ieFlowStartSysUpTime, Length: 4},
	{ID: ieFlowEndSysUpTime, Length: 4},
	{ID: ieBGPSourceAS, Length: 2},
	{ID: ieBGPDestinationAS, Length: 2},
	{ID: ieSourceIPv6PrefixLen, Length: 1},
	{ID: ieDestIPv6PrefixLen, Length: 1},
	{ID: ieFlowLabelIPv6, Length: 4},
	{ID: ieMinimumTTL, Length: 1},
	{ID: ieIngressInterface, Length: 2},
}

// ipfixExportFields6 is the v6 flavor of the IPFIX export template
// (76 bytes per record).
var ipfixExportFields6 = []TemplateField{
	{ID: ieSourceIPv6Address, Length: 16},
	{ID: ieDestIPv6Address, Length: 16},
	{ID: ieSourceTransportPort, Length: 2},
	{ID: ieDestTransportPort, Length: 2},
	{ID: ieProtocolIdentifier, Length: 1},
	{ID: ieIPClassOfService, Length: 1},
	{ID: ieTCPControlBits, Length: 1},
	{ID: iePacketDeltaCount, Length: 4},
	{ID: ieOctetDeltaCount, Length: 4},
	{ID: ieFlowStartMilliseconds, Length: 8},
	{ID: ieFlowEndMilliseconds, Length: 8},
	{ID: ieBGPSourceAS, Length: 2},
	{ID: ieBGPDestinationAS, Length: 2},
	{ID: ieSourceIPv6PrefixLen, Length: 1},
	{ID: ieDestIPv6PrefixLen, Length: 1},
	{ID: ieFlowLabelIPv6, Length: 4},
	{ID: ieMinimumTTL, Length: 1},
	{ID: ieIngressInterface, Length: 2},
}

// fieldValue extracts one information element from a flow record for
// encoding; boot anchors sysUptime-relative elements.
func fieldValue(id uint16, rec flow.Record, boot time.Time) uint64 {
	switch id {
	case ieOctetDeltaCount:
		return uint64(rec.Bytes)
	case iePacketDeltaCount:
		return uint64(rec.Packets)
	case ieProtocolIdentifier:
		return uint64(rec.Key.Proto)
	case ieIPClassOfService:
		return uint64(rec.Key.TOS)
	case ieTCPControlBits:
		return uint64(rec.TCPFlag)
	case ieSourceTransportPort:
		return uint64(rec.Key.SrcPort)
	case ieSourceIPv4Address:
		v4, _ := rec.Key.Src.V4()
		return uint64(v4)
	case ieSourceIPv4PrefixLen, ieSourceIPv6PrefixLen:
		return uint64(rec.SrcMask)
	case ieIngressInterface:
		return uint64(rec.Key.InputIf)
	case ieDestTransportPort:
		return uint64(rec.Key.DstPort)
	case ieDestIPv4Address:
		v4, _ := rec.Key.Dst.V4()
		return uint64(v4)
	case ieDestIPv4PrefixLen, ieDestIPv6PrefixLen:
		return uint64(rec.DstMask)
	case ieBGPSourceAS:
		return uint64(rec.SrcAS)
	case ieBGPDestinationAS:
		return uint64(rec.DstAS)
	case ieFlowLabelIPv6:
		return uint64(rec.FlowLabel)
	case ieMinimumTTL, ieMaximumTTL, ieIPTTL:
		return uint64(rec.TTL)
	case ieFlowStartSysUpTime:
		return uint64(uint32(rec.Start.Sub(boot).Milliseconds()))
	case ieFlowEndSysUpTime:
		return uint64(uint32(rec.End.Sub(boot).Milliseconds()))
	case ieFlowStartMilliseconds:
		return uint64(rec.Start.UnixMilli())
	case ieFlowEndMilliseconds:
		return uint64(rec.End.UnixMilli())
	}
	return 0
}

// putUint writes v big-endian across all of b.
func putUint(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// putField writes one information element of rec into b; 16-byte fields
// are the v6 address elements, everything else is a big-endian integer.
func putField(b []byte, id uint16, rec flow.Record, boot time.Time) {
	if len(b) == 16 {
		var a [16]byte
		switch id {
		case ieSourceIPv6Address:
			a = rec.Key.Src.As16()
		case ieDestIPv6Address:
			a = rec.Key.Dst.As16()
		}
		copy(b, a[:])
		return
	}
	putUint(b, fieldValue(id, rec, boot))
}

// encodeTemplateSet builds one template (flow)set announcing fields under
// tid. setID is v9SetTemplate or ipfixSetTemplate.
func encodeTemplateSet(setID, tid uint16, fields []TemplateField) []byte {
	b := make([]byte, 4+4+4*len(fields))
	binary.BigEndian.PutUint16(b[0:2], setID)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	binary.BigEndian.PutUint16(b[4:6], tid)
	binary.BigEndian.PutUint16(b[6:8], uint16(len(fields)))
	for i, f := range fields {
		off := 8 + 4*i
		binary.BigEndian.PutUint16(b[off:off+2], f.ID)
		binary.BigEndian.PutUint16(b[off+2:off+4], f.Length)
	}
	return b
}

// encodeDataSet builds one data (flow)set of recs laid out per fields,
// padded to a 32-bit boundary as both specs require.
func encodeDataSet(tid uint16, fields []TemplateField, recs []flow.Record, boot time.Time) []byte {
	recLen := 0
	for _, f := range fields {
		recLen += int(f.Length)
	}
	n := 4 + recLen*len(recs)
	pad := (4 - n%4) % 4
	b := make([]byte, n+pad)
	binary.BigEndian.PutUint16(b[0:2], tid)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(b)))
	off := 4
	for _, rec := range recs {
		for _, f := range fields {
			putField(b[off:off+int(f.Length)], f.ID, rec, boot)
			off += int(f.Length)
		}
	}
	return b
}

// familyRun returns the length of the leading run of recs sharing one
// address family, and whether that family is v6. Template-based encoders
// segment batches into such runs so each data set references the
// template of its records' family while preserving record order.
func familyRun(recs []flow.Record) (n int, v6 bool) {
	fam := recs[0].Key.Family()
	n = 1
	for n < len(recs) && recs[n].Key.Family() == fam {
		n++
	}
	return n, fam == netaddr.FamilyV6
}

// TemplateEncoder emits NetFlow v9 or IPFIX datagrams: standalone
// template datagrams announcing the version's v4 and/or v6 export
// fields, then data datagrams referencing them. Each family's template
// is announced lazily before that family's first data datagram, so an
// all-v4 stream carries no v6 template. Only the header layout, the
// template set id and the field tables differ by version; they are
// fixed at construction.
type TemplateEncoder struct {
	version         uint16
	boot            time.Time // anchors v9 sysUptime; unused by IPFIX
	domain          uint32
	seq             uint32 // v9 counts datagrams, IPFIX data records
	templateSet     uint16
	fields, fields6 []TemplateField

	announced  bool // v4 template sent
	announced6 bool // v6 template sent
	pending6   bool // v6 data emitted while its template was withheld
	delay      int  // data datagrams to emit before a template
}

// NewV9Encoder returns a v9 encoder for one observation domain (source
// id), with sysUptime measured from boot.
func NewV9Encoder(boot time.Time, domain uint32) *TemplateEncoder {
	return &TemplateEncoder{version: VersionV9, boot: boot, domain: domain,
		templateSet: v9SetTemplate, fields: v9ExportFields, fields6: v9ExportFields6}
}

// NewIPFIXEncoder returns an IPFIX encoder for one observation domain.
func NewIPFIXEncoder(domain uint32) *TemplateEncoder {
	return &TemplateEncoder{version: VersionIPFIX, domain: domain,
		templateSet: ipfixSetTemplate, fields: ipfixExportFields, fields6: ipfixExportFields6}
}

// SetTemplateDelay withholds the template datagram until n data datagrams
// have been emitted (or Flush is called), forcing receivers to exercise
// their orphan-buffering path. Zero (the default) announces the template
// before any data.
func (e *TemplateEncoder) SetTemplateDelay(n int) { e.delay = n }

func (e *TemplateEncoder) Version() uint16 { return e.version }

// datagram wraps one set in the version's header. dataRecs is the number
// of data records in the set, zero for a template set. v9 writes the
// record count (a template set holds one template record), sysUptime
// and unix seconds, and its sequence advances per datagram; IPFIX writes
// the message length and export seconds, and its sequence advances per
// data record.
func (e *TemplateEncoder) datagram(now time.Time, dataRecs int, set []byte) []byte {
	var b []byte
	if e.version == VersionV9 {
		b = make([]byte, v9HeaderSize, v9HeaderSize+len(set))
		binary.BigEndian.PutUint16(b[2:4], uint16(max(dataRecs, 1)))
		binary.BigEndian.PutUint32(b[4:8], uint32(now.Sub(e.boot).Milliseconds()))
		binary.BigEndian.PutUint32(b[8:12], uint32(now.Unix()))
		binary.BigEndian.PutUint32(b[12:16], e.seq)
		binary.BigEndian.PutUint32(b[16:20], e.domain)
		e.seq++
	} else {
		b = make([]byte, ipfixHeaderSize, ipfixHeaderSize+len(set))
		binary.BigEndian.PutUint16(b[2:4], uint16(ipfixHeaderSize+len(set)))
		binary.BigEndian.PutUint32(b[4:8], uint32(now.Unix()))
		binary.BigEndian.PutUint32(b[8:12], e.seq)
		binary.BigEndian.PutUint32(b[12:16], e.domain)
		e.seq += uint32(dataRecs)
	}
	binary.BigEndian.PutUint16(b[0:2], e.version)
	return append(b, set...)
}

// family returns the template id and export fields of one address family.
func (e *TemplateEncoder) family(v6 bool) (uint16, []TemplateField) {
	if v6 {
		return exportTemplateID6, e.fields6
	}
	return exportTemplateID, e.fields
}

// template emits the standalone template datagram of one family.
func (e *TemplateEncoder) template(now time.Time, v6 bool) WireDatagram {
	if v6 {
		e.announced6 = true
	} else {
		e.announced = true
	}
	tid, fields := e.family(v6)
	return WireDatagram{Raw: e.datagram(now, 0, encodeTemplateSet(e.templateSet, tid, fields))}
}

func (e *TemplateEncoder) Encode(recs []flow.Record, now time.Time) []WireDatagram {
	var out []WireDatagram
	for len(recs) > 0 {
		run, v6 := familyRun(recs)
		tid, fields := e.family(v6)
		for chunk := recs[:run]; len(chunk) > 0; {
			n := min(len(chunk), MaxRecords)
			if v6 && !e.announced6 || !v6 && !e.announced {
				if e.delay > 0 {
					e.delay--
					e.pending6 = e.pending6 || v6
				} else {
					out = append(out, e.template(now, v6))
				}
			}
			ds := encodeDataSet(tid, fields, chunk[:n], e.boot)
			out = append(out, WireDatagram{Raw: e.datagram(now, n, ds), Flows: n})
			chunk = chunk[n:]
		}
		recs = recs[run:]
	}
	return out
}

// Flush emits any still-withheld template datagrams, so a short replay
// always lets receivers resolve buffered orphans. The v4 template is
// emitted whenever unannounced; the v6 template only if v6 data actually
// went out without it.
func (e *TemplateEncoder) Flush(now time.Time) []WireDatagram {
	var out []WireDatagram
	if !e.announced {
		out = append(out, e.template(now, false))
	}
	if !e.announced6 && e.pending6 {
		out = append(out, e.template(now, true))
	}
	return out
}
