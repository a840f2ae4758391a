package packet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"infilter/internal/netaddr"
)

// Trace-file format: the DAG-capture substitute the testbed replays. A
// trace is a little header followed by fixed-size packet records ordered by
// timestamp. Binary, big-endian, so traces round-trip across platforms.
//
//	header    : magic "IFTR" | uint16 version | uint16 reserved
//	record v1 : int64 unixNanos | uint32 src | uint32 dst |
//	            uint8 proto | uint8 tos | uint8 tcpFlags | uint8 flagBits |
//	            uint16 srcPort | uint16 dstPort | uint16 length | uint16 fragOff
//	record v2 : int64 unixNanos | src[16] | dst[16] | uint8 family |
//	            uint8 proto | uint8 tos | uint8 tcpFlags | uint8 flagBits |
//	            uint16 srcPort | uint16 dstPort | uint16 length | uint16 fragOff
//
// flagBits bit0 = more-fragments. v2 carries the addresses as raw
// 16-byte values (v4 mapped 4-in-6) plus a family byte (4 or 6; both
// addresses of a packet share one family). Writers emit v2; readers
// accept v1 traces as v4-only, so pre-dual-stack trace files replay
// unchanged.

const (
	traceMagic      = "IFTR"
	traceVersion    = 2
	traceVersionOld = 1
	recordSizeV1    = 8 + 4 + 4 + 4 + 2 + 2 + 2 + 2
	recordSize      = 8 + 16 + 16 + 1 + 4 + 2 + 2 + 2 + 2
)

// Errors returned by the trace codec.
var (
	ErrBadTrace    = errors.New("packet: malformed trace file")
	ErrBadVersion  = errors.New("packet: unsupported trace version")
	ErrShortRecord = errors.New("packet: truncated trace record")
)

// TraceWriter streams packets into a trace file.
type TraceWriter struct {
	w *bufio.Writer
}

// NewTraceWriter writes the trace header and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, fmt.Errorf("packet: write trace header: %w", err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], traceVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("packet: write trace header: %w", err)
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one packet record (v2 layout).
func (tw *TraceWriter) Write(p Packet) error {
	var rec [recordSize]byte
	binary.BigEndian.PutUint64(rec[0:8], uint64(p.Time.UnixNano()))
	src16, dst16 := p.Src.As16(), p.Dst.As16()
	copy(rec[8:24], src16[:])
	copy(rec[24:40], dst16[:])
	rec[40] = byte(p.Src.Family())
	rec[41] = p.Proto
	rec[42] = p.TOS
	rec[43] = p.TCPFlags
	if p.MoreFrag {
		rec[44] = 1
	}
	binary.BigEndian.PutUint16(rec[45:47], p.SrcPort)
	binary.BigEndian.PutUint16(rec[47:49], p.DstPort)
	binary.BigEndian.PutUint16(rec[49:51], p.Length)
	binary.BigEndian.PutUint16(rec[51:53], p.FragOff)
	if _, err := tw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("packet: write trace record: %w", err)
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (tw *TraceWriter) Flush() error {
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("packet: flush trace: %w", err)
	}
	return nil
}

// TraceReader streams packets out of a trace file.
type TraceReader struct {
	r       *bufio.Reader
	version uint16
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[0:4])
	}
	v := binary.BigEndian.Uint16(hdr[4:6])
	if v != traceVersion && v != traceVersionOld {
		return nil, fmt.Errorf("%w: version %d", ErrBadVersion, v)
	}
	return &TraceReader{r: br, version: v}, nil
}

// Read returns the next packet, or io.EOF at end of trace.
func (tr *TraceReader) Read() (Packet, error) {
	if tr.version == traceVersionOld {
		return tr.readV1()
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: %v", ErrShortRecord, err)
	}
	var src16, dst16 [16]byte
	copy(src16[:], rec[8:24])
	copy(dst16[:], rec[24:40])
	src, dst := netaddr.AddrFrom16(src16), netaddr.AddrFrom16(dst16)
	switch rec[40] {
	case byte(netaddr.FamilyV4):
		src, dst = src.Unmap(), dst.Unmap()
	case byte(netaddr.FamilyV6):
	case byte(netaddr.FamilyNone):
		// A record written from a zero Packet round-trips as one.
		src, dst = netaddr.Addr{}, netaddr.Addr{}
	default:
		return Packet{}, fmt.Errorf("%w: family byte %d", ErrBadTrace, rec[40])
	}
	return Packet{
		Time:     time.Unix(0, int64(binary.BigEndian.Uint64(rec[0:8]))).UTC(),
		Src:      src,
		Dst:      dst,
		Proto:    rec[41],
		TOS:      rec[42],
		TCPFlags: rec[43],
		MoreFrag: rec[44]&1 != 0,
		SrcPort:  binary.BigEndian.Uint16(rec[45:47]),
		DstPort:  binary.BigEndian.Uint16(rec[47:49]),
		Length:   binary.BigEndian.Uint16(rec[49:51]),
		FragOff:  binary.BigEndian.Uint16(rec[51:53]),
	}, nil
}

// readV1 parses the pre-dual-stack 28-byte record (v4 addresses only).
func (tr *TraceReader) readV1() (Packet, error) {
	var rec [recordSizeV1]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: %v", ErrShortRecord, err)
	}
	return Packet{
		Time:     time.Unix(0, int64(binary.BigEndian.Uint64(rec[0:8]))).UTC(),
		Src:      netaddr.IPv4(binary.BigEndian.Uint32(rec[8:12])).Addr(),
		Dst:      netaddr.IPv4(binary.BigEndian.Uint32(rec[12:16])).Addr(),
		Proto:    rec[16],
		TOS:      rec[17],
		TCPFlags: rec[18],
		MoreFrag: rec[19]&1 != 0,
		SrcPort:  binary.BigEndian.Uint16(rec[20:22]),
		DstPort:  binary.BigEndian.Uint16(rec[22:24]),
		Length:   binary.BigEndian.Uint16(rec[24:26]),
		FragOff:  binary.BigEndian.Uint16(rec[26:28]),
	}, nil
}

// ReadAll drains the remaining records.
func (tr *TraceReader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
