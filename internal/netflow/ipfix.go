package netflow

import (
	"encoding/binary"
	"fmt"
	"time"
)

// IPFIX wire constants (RFC 7011).
const (
	ipfixHeaderSize = 16

	ipfixSetTemplate        = 2
	ipfixSetOptionsTemplate = 3
)

// decodeIPFIX decodes one IPFIX message. Its set grammar matches v9;
// the differences are the 16-byte header carrying an explicit message
// length and export time in seconds, enterprise-specific template
// fields, variable-length fields, and sequence numbers that count data
// records rather than datagrams.
func decodeIPFIX(raw []byte, buf *DecodeBuffer) (Message, error) {
	if len(raw) < ipfixHeaderSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortDatagram, len(raw))
	}
	msgLen := int(binary.BigEndian.Uint16(raw[2:4]))
	if msgLen < ipfixHeaderSize || msgLen > len(raw) {
		return Message{}, fmt.Errorf("%w: message length %d of %d bytes", ErrBadCount, msgLen, len(raw))
	}
	export := time.Unix(int64(binary.BigEndian.Uint32(raw[4:8])), 0).UTC()
	// IPFIX has no sysUptime basis; absolute timestamp elements (150-153)
	// are the norm, so relative stamps fall back to the export time.
	msg, key, err := decodeSets(raw[:msgLen], ipfixHeaderSize, Message{
		Version:    VersionIPFIX,
		Domain:     binary.BigEndian.Uint32(raw[12:16]),
		ExportTime: export,
		Sequence:   binary.BigEndian.Uint32(raw[8:12]),
	}, recordContext{boot: export, export: export}, buf)
	if err != nil {
		return Message{}, err
	}
	buf.cache.metrics.DatagramsIPFIX.Inc()
	// Sequence numbers count data records at their original export, so
	// orphan-recovered records (already counted by the message that
	// carried them) must not advance the expectation here.
	newRecords := max(len(msg.Records)-msg.Resolved, 0)
	msg.SeqGap = buf.cache.seqCheck(key, msg.Sequence, uint32(newRecords))
	if msg.Orphaned > 0 {
		// The orphaned sets' record counts are unknown until their
		// template arrives, so the next expected sequence value is
		// unknowable; resynchronize on the next message instead of
		// reporting false gaps.
		buf.cache.seqReset(key)
	}
	return msg, nil
}
