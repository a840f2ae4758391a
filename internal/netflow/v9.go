package netflow

import (
	"encoding/binary"
	"fmt"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// NetFlow v9 wire constants (RFC 3954).
const (
	v9HeaderSize = 20

	v9SetTemplate        = 0
	v9SetOptionsTemplate = 1

	// minDataSetID is the lowest flowset/set id that carries data
	// records; lower ids are template or reserved sets in both v9 and
	// IPFIX.
	minDataSetID = 256

	// maxTemplateFields bounds a single template's field count against
	// hostile input; real exporters use a few dozen fields.
	maxTemplateFields = 256
)

// IANA information element numbers shared by v9 and IPFIX for the fields
// the analysis model consumes.
const (
	ieOctetDeltaCount       = 1
	iePacketDeltaCount      = 2
	ieProtocolIdentifier    = 4
	ieIPClassOfService      = 5
	ieTCPControlBits        = 6
	ieSourceTransportPort   = 7
	ieSourceIPv4Address     = 8
	ieSourceIPv4PrefixLen   = 9
	ieIngressInterface      = 10
	ieDestTransportPort     = 11
	ieDestIPv4Address       = 12
	ieDestIPv4PrefixLen     = 13
	ieBGPSourceAS           = 16
	ieBGPDestinationAS      = 17
	ieFlowEndSysUpTime      = 21
	ieFlowStartSysUpTime    = 22
	ieSourceIPv6Address     = 27
	ieDestIPv6Address       = 28
	ieSourceIPv6PrefixLen   = 29
	ieDestIPv6PrefixLen     = 30
	ieFlowLabelIPv6         = 31
	ieMinimumTTL            = 52
	ieMaximumTTL            = 53
	ieFlowStartSeconds      = 150
	ieFlowEndSeconds        = 151
	ieFlowStartMilliseconds = 152
	ieFlowEndMilliseconds   = 153
	ieIPTTL                 = 192
)

// recordContext carries the per-datagram clock basis a data record needs:
// boot anchors sysUptime-relative stamps, export is the fallback for
// records without timestamp fields.
type recordContext struct {
	boot   time.Time
	export time.Time
}

// decodeV9 decodes one NetFlow v9 export datagram: the 20-byte header
// carries sysUptime, which anchors the records' relative timestamps.
func decodeV9(raw []byte, buf *DecodeBuffer) (Message, error) {
	if len(raw) < v9HeaderSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortDatagram, len(raw))
	}
	sysUptime := time.Duration(binary.BigEndian.Uint32(raw[4:8])) * time.Millisecond
	export := time.Unix(int64(binary.BigEndian.Uint32(raw[8:12])), 0).UTC()
	msg, key, err := decodeSets(raw, v9HeaderSize, Message{
		Version:    VersionV9,
		Domain:     binary.BigEndian.Uint32(raw[16:20]),
		ExportTime: export,
		Sequence:   binary.BigEndian.Uint32(raw[12:16]),
	}, recordContext{boot: export.Add(-sysUptime), export: export}, buf)
	if err != nil {
		return Message{}, err
	}
	buf.cache.metrics.DatagramsV9.Inc()
	// v9 sequence numbers count export datagrams, so a gap is exact even
	// when some sets were orphaned.
	msg.SeqGap = buf.cache.seqCheck(key, msg.Sequence, 1)
	return msg, nil
}

// decodeSets walks the sets that follow a v9 or IPFIX header (the two
// set grammars match): template sets update the shared cache and resolve
// any waiting orphans, options templates and reserved ids are skipped,
// and data sets decode through their template or are buffered until it
// arrives. hdr carries the header fields; ctx is the clock basis of this
// datagram's records.
func decodeSets(raw []byte, off int, hdr Message, ctx recordContext, buf *DecodeBuffer) (Message, domainKey, error) {
	ipfix := hdr.Version == VersionIPFIX
	templateSet, optionsSet := uint16(v9SetTemplate), uint16(v9SetOptionsTemplate)
	if ipfix {
		templateSet, optionsSet = ipfixSetTemplate, ipfixSetOptionsTemplate
	}
	msg := hdr
	msg.Exporter = buf.exporter
	key := domainKey{exporter: buf.exporter, domain: msg.Domain}
	buf.recs = buf.recs[:0]
	for off+4 <= len(raw) {
		setID := binary.BigEndian.Uint16(raw[off : off+2])
		setLen := int(binary.BigEndian.Uint16(raw[off+2 : off+4]))
		if setLen < 4 || off+setLen > len(raw) {
			return Message{}, key, fmt.Errorf("%w: set id=%d len=%d at offset %d", ErrBadSet, setID, setLen, off)
		}
		payload := raw[off+4 : off+setLen]
		switch {
		case setID == templateSet:
			n, err := decodeTemplateSet(payload, ipfix, key, buf, &msg)
			if err != nil {
				return Message{}, key, err
			}
			msg.TemplateSets += n
		case setID == optionsSet:
			// Options data describes the exporter, not traffic; skip.
		case setID >= minDataSetID:
			decodeDataSet(payload, setID, key, ctx, buf, &msg)
		default:
			// Reserved set ids (v9: 2-255; IPFIX: 0, 1 and 4-255): skip
			// for forward compatibility.
		}
		off += setLen
	}
	msg.Records = buf.recs
	return msg, key, nil
}

// decodeTemplateSet parses the templates of one template set (v9 or
// IPFIX layout per the ipfix flag), learns them into the cache and
// decodes any orphaned data sets they unblock into buf, each with the
// clock basis of the datagram it arrived in. It returns the number of
// templates processed.
func decodeTemplateSet(payload []byte, ipfix bool, key domainKey, buf *DecodeBuffer, msg *Message) (int, error) {
	templates := 0
	off := 0
	// A template set may pad with fewer than 4 trailing bytes.
	for off+4 <= len(payload) {
		tid := binary.BigEndian.Uint16(payload[off : off+2])
		fieldCount := int(binary.BigEndian.Uint16(payload[off+2 : off+4]))
		off += 4
		if ipfix && fieldCount == 0 {
			// IPFIX template withdrawal.
			buf.cache.withdraw(key, tid)
			templates++
			continue
		}
		if tid < minDataSetID || fieldCount == 0 || fieldCount > maxTemplateFields {
			return templates, fmt.Errorf("%w: template id=%d fields=%d", ErrBadSet, tid, fieldCount)
		}
		t := &Template{ID: tid, Fields: make([]TemplateField, 0, fieldCount)}
		for i := 0; i < fieldCount; i++ {
			if off+4 > len(payload) {
				return templates, fmt.Errorf("%w: truncated template %d", ErrBadSet, tid)
			}
			f := TemplateField{
				ID:     binary.BigEndian.Uint16(payload[off : off+2]),
				Length: binary.BigEndian.Uint16(payload[off+2 : off+4]),
			}
			off += 4
			if ipfix && f.ID&0x8000 != 0 {
				if off+4 > len(payload) {
					return templates, fmt.Errorf("%w: truncated enterprise field in template %d", ErrBadSet, tid)
				}
				f.ID &= 0x7FFF
				f.Enterprise = binary.BigEndian.Uint32(payload[off : off+4])
				off += 4
			}
			t.Fields = append(t.Fields, f)
		}
		t.compile()
		if t.minLen == 0 {
			// All-zero-length fields would decode forever; reject.
			return templates, fmt.Errorf("%w: template %d has zero record length", ErrBadSet, tid)
		}
		before := len(buf.recs)
		for _, o := range buf.cache.learn(key, t) {
			decodeRecords(o.data, t, o.ctx, buf)
		}
		msg.Resolved += len(buf.recs) - before
		templates++
	}
	return templates, nil
}

// decodeDataSet decodes one data set through its cached template, or
// buffers a copy of it, with the datagram's clock basis, as an orphan
// when the template is not yet known.
func decodeDataSet(payload []byte, setID uint16, key domainKey, ctx recordContext, buf *DecodeBuffer, msg *Message) {
	t := buf.cache.lookup(key, setID)
	if t == nil {
		if buf.cache.buffer(key, setID, orphan{data: append([]byte(nil), payload...), ctx: ctx}) {
			msg.Orphaned++
		}
		return
	}
	decodeRecords(payload, t, ctx, buf)
}

// decodeRecords walks the data records of one set, appending decoded
// flows to buf.recs. Trailing bytes shorter than a record are padding;
// malformed variable-length records stop the walk without failing the
// datagram (the set boundary is already validated).
func decodeRecords(payload []byte, t *Template, ctx recordContext, buf *DecodeBuffer) {
	off := 0
	for len(payload)-off >= t.minLen {
		rec := flow.Record{Start: ctx.export, End: ctx.export}
		next, ok := decodeOneRecord(payload, off, t, ctx, &rec)
		if !ok {
			return
		}
		buf.recs = append(buf.recs, rec)
		off = next
	}
}

// decodeOneRecord decodes a single record starting at off, returning the
// offset past it. ok is false when the record is truncated (possible
// only with variable-length fields; fixed layouts are pre-checked).
func decodeOneRecord(payload []byte, off int, t *Template, ctx recordContext, rec *flow.Record) (int, bool) {
	for _, f := range t.Fields {
		flen := int(f.Length)
		if f.Length == lenVariable {
			// IPFIX variable-length encoding: 1-byte length, with 255
			// escaping to a 2-byte length.
			if off >= len(payload) {
				return 0, false
			}
			flen = int(payload[off])
			off++
			if flen == 255 {
				if off+2 > len(payload) {
					return 0, false
				}
				flen = int(binary.BigEndian.Uint16(payload[off : off+2]))
				off += 2
			}
		}
		if off+flen > len(payload) {
			return 0, false
		}
		if f.Enterprise == 0 && f.Length != lenVariable {
			if flen <= 8 {
				assignField(f.ID, readUint(payload[off:off+flen]), ctx, rec)
			} else if flen == 16 {
				assignField16(f.ID, payload[off:off+16], rec)
			}
		}
		off += flen
	}
	return off, true
}

// assignField maps one information element value onto the flow record.
// Unknown elements are ignored so richer production templates decode
// down to the fields the pipeline consumes.
func assignField(id uint16, v uint64, ctx recordContext, rec *flow.Record) {
	switch id {
	case ieOctetDeltaCount:
		rec.Bytes = uint32(v)
	case iePacketDeltaCount:
		rec.Packets = uint32(v)
	case ieProtocolIdentifier:
		rec.Key.Proto = uint8(v)
	case ieIPClassOfService:
		rec.Key.TOS = uint8(v)
	case ieTCPControlBits:
		rec.TCPFlag = uint8(v)
	case ieSourceTransportPort:
		rec.Key.SrcPort = uint16(v)
	case ieSourceIPv4Address:
		rec.Key.Src = netaddr.IPv4(uint32(v)).Addr()
	case ieSourceIPv4PrefixLen, ieSourceIPv6PrefixLen:
		rec.SrcMask = uint8(v)
	case ieIngressInterface:
		rec.Key.InputIf = uint16(v)
	case ieDestTransportPort:
		rec.Key.DstPort = uint16(v)
	case ieDestIPv4Address:
		rec.Key.Dst = netaddr.IPv4(uint32(v)).Addr()
	case ieDestIPv4PrefixLen, ieDestIPv6PrefixLen:
		rec.DstMask = uint8(v)
	case ieFlowLabelIPv6:
		rec.FlowLabel = uint32(v)
	case ieMinimumTTL, ieIPTTL:
		// The per-flow minimum is the TTL the profile detector learns;
		// ipTTL (a plain per-packet TTL some exporters emit) carries the
		// same meaning for single-packet probes.
		rec.TTL = uint8(v)
	case ieMaximumTTL:
		// Only a fallback: a template carrying both min and max keeps the
		// minimum (fields are assigned in template order; 52 < 53 in every
		// template this package emits, and an explicit min wins anyway).
		if rec.TTL == 0 {
			rec.TTL = uint8(v)
		}
	case ieBGPSourceAS:
		rec.SrcAS = uint16(v)
	case ieBGPDestinationAS:
		rec.DstAS = uint16(v)
	case ieFlowStartSysUpTime:
		rec.Start = ctx.boot.Add(time.Duration(v) * time.Millisecond)
	case ieFlowEndSysUpTime:
		rec.End = ctx.boot.Add(time.Duration(v) * time.Millisecond)
	case ieFlowStartSeconds:
		rec.Start = time.Unix(int64(v), 0).UTC()
	case ieFlowEndSeconds:
		rec.End = time.Unix(int64(v), 0).UTC()
	case ieFlowStartMilliseconds:
		rec.Start = time.UnixMilli(int64(v)).UTC()
	case ieFlowEndMilliseconds:
		rec.End = time.UnixMilli(int64(v)).UTC()
	}
}

// assignField16 maps a 16-byte information element (the IPv6 address
// IEs) onto the flow record. Other 16-byte elements are ignored, like
// unknown scalar elements.
func assignField16(id uint16, b []byte, rec *flow.Record) {
	switch id {
	case ieSourceIPv6Address:
		rec.Key.Src = addr16(b)
	case ieDestIPv6Address:
		rec.Key.Dst = addr16(b)
	}
}

// addr16 builds a v6 Addr from 16 wire bytes without an intermediate
// copy allocation.
func addr16(b []byte) netaddr.Addr {
	var v [16]byte
	copy(v[:], b)
	return netaddr.AddrFrom16(v)
}

// readUint reads a big-endian unsigned integer of 1..8 bytes.
func readUint(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}
