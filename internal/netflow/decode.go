package netflow

import (
	"encoding/binary"
	"fmt"
	"time"

	"infilter/internal/flow"
)

// Message is one decoded export datagram, version-agnostic: consumers see
// exporter metadata and analysis-model flow records, never a wire type.
type Message struct {
	// Version is the export format that carried the records (VersionV5,
	// VersionV9 or VersionIPFIX).
	Version uint16
	// Exporter is the sending device's identity as set on the
	// DecodeBuffer (the collector uses the UDP source address).
	Exporter string
	// Domain is the exporter-scoped template namespace: the v9 source
	// id, the IPFIX observation domain id, or the v5 engine id.
	Domain uint32
	// ExportTime is the exporter's clock when the datagram was built.
	ExportTime time.Time
	// Sequence is the raw export sequence value from the header (v9
	// counts datagrams, v5 and IPFIX count records).
	Sequence uint32
	// SeqGap is the number of export units (datagrams or records) the
	// sequence tracker saw skipped immediately before this datagram;
	// zero when the stream is contiguous.
	SeqGap uint64
	// TemplateSets counts template definitions processed from this
	// datagram; Orphaned counts data sets buffered to wait for their
	// template; Resolved counts records recovered from earlier datagrams'
	// orphaned sets that this datagram's templates unblocked.
	TemplateSets int
	Orphaned     int
	Resolved     int
	// Records are the decoded flows, including any previously orphaned
	// data sets this datagram's templates unblocked. The slice aliases
	// the DecodeBuffer and is valid only until the next Decode call on
	// the same buffer; copy records that must outlive it.
	Records []flow.Record
}

// DecodeBuffer is the reusable per-goroutine decode state: a record
// slice recycled across calls (steady-state decode allocates nothing)
// and a reference to the template cache shared between listeners. A
// DecodeBuffer must not be used concurrently; create one per receive
// loop and share the TemplateCache instead.
type DecodeBuffer struct {
	exporter string
	cache    *TemplateCache
	recs     []flow.Record
}

// NewDecodeBuffer returns a buffer resolving templates through cache.
// A nil cache gets a private cache with default bounds — fine for
// single-consumer tools, wrong for multi-listener daemons (exporter
// state would not be shared).
func NewDecodeBuffer(cache *TemplateCache) *DecodeBuffer {
	if cache == nil {
		cache = NewTemplateCache(TemplateCacheConfig{})
	}
	return &DecodeBuffer{cache: cache}
}

// SetExporter sets the exporter identity stamped on decoded messages and
// used to scope template and sequence state. Call it whenever the
// datagram source changes (the collector sets it per datagram).
func (b *DecodeBuffer) SetExporter(id string) { b.exporter = id }

// Decode sniffs the version word of one export datagram and routes it to
// the v5, v9 or IPFIX decoder, returning the decoded message. Corrupt
// input returns an error and never panics; data sets whose template is
// not yet known are buffered (bounded) rather than failing the datagram.
func Decode(raw []byte, buf *DecodeBuffer) (Message, error) {
	if len(raw) < 2 {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortDatagram, len(raw))
	}
	switch v := binary.BigEndian.Uint16(raw[0:2]); v {
	case VersionV5:
		return decodeV5(raw, buf)
	case VersionV9:
		return decodeV9(raw, buf)
	case VersionIPFIX:
		return decodeIPFIX(raw, buf)
	default:
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
}
