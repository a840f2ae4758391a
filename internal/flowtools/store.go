package flowtools

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// Binary flow-store format (flow-capture's on-disk role): a short header
// followed by fixed-size flow records, big-endian.
//
//	header    : magic "IFFS" | uint16 version | uint16 reserved
//	record v1 : uint32 src | uint32 dst | uint8 proto | uint8 tos |
//	            uint8 tcpFlags | uint8 srcMask | uint16 srcPort | uint16 dstPort |
//	            uint16 inputIf | uint8 dstMask | uint8 pad |
//	            uint32 packets | uint32 bytes |
//	            int64 startUnixNanos | int64 endUnixNanos |
//	            uint16 srcAS | uint16 dstAS
//	record v2 : src[16] | dst[16] | uint8 family | (rest as v1 from proto on)
//
// v2 widens the two addresses to raw 16-byte values (v4 mapped 4-in-6)
// plus one family byte (4 or 6; a flow key never mixes families). Writers
// emit v2; readers accept v1 stores as v4-only, so archives written
// before the dual-stack refactor keep replaying.

const (
	storeMagic        = "IFFS"
	storeVersion      = 2
	storeVersionOld   = 1
	storeRecordSizeV1 = 4 + 4 + 4 + 2 + 2 + 2 + 2 + 4 + 4 + 8 + 8 + 2 + 2
	storeRecordSize   = 16 + 16 + 1 + 4 + 2 + 2 + 2 + 2 + 4 + 4 + 8 + 8 + 2 + 2
)

// Errors returned by the store codec.
var (
	ErrBadStore     = errors.New("flowtools: malformed flow store")
	ErrBadStoreVers = errors.New("flowtools: unsupported flow store version")
)

// StoreWriter writes flow records in the binary store format.
type StoreWriter struct {
	w *bufio.Writer
}

// NewStoreWriter writes the store header and returns a writer.
func NewStoreWriter(w io.Writer) (*StoreWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(storeMagic); err != nil {
		return nil, fmt.Errorf("flowtools: write store header: %w", err)
	}
	var v [4]byte
	binary.BigEndian.PutUint16(v[0:2], storeVersion)
	if _, err := bw.Write(v[:]); err != nil {
		return nil, fmt.Errorf("flowtools: write store header: %w", err)
	}
	return &StoreWriter{w: bw}, nil
}

// appendStoreWriter wraps a store file that already carries its header,
// for appending further records (archive rotation re-opening a slot file).
func appendStoreWriter(w io.Writer) (*StoreWriter, error) {
	return &StoreWriter{w: bufio.NewWriter(w)}, nil
}

// Write appends one record (v2 layout).
func (sw *StoreWriter) Write(r flow.Record) error {
	var rec [storeRecordSize]byte
	src16, dst16 := r.Key.Src.As16(), r.Key.Dst.As16()
	copy(rec[0:16], src16[:])
	copy(rec[16:32], dst16[:])
	rec[32] = byte(r.Key.Family())
	rec[33] = r.Key.Proto
	rec[34] = r.Key.TOS
	rec[35] = r.TCPFlag
	rec[36] = r.SrcMask
	binary.BigEndian.PutUint16(rec[37:39], r.Key.SrcPort)
	binary.BigEndian.PutUint16(rec[39:41], r.Key.DstPort)
	binary.BigEndian.PutUint16(rec[41:43], r.Key.InputIf)
	rec[43] = r.DstMask
	binary.BigEndian.PutUint32(rec[45:49], r.Packets)
	binary.BigEndian.PutUint32(rec[49:53], r.Bytes)
	binary.BigEndian.PutUint64(rec[53:61], uint64(r.Start.UnixNano()))
	binary.BigEndian.PutUint64(rec[61:69], uint64(r.End.UnixNano()))
	binary.BigEndian.PutUint16(rec[69:71], r.SrcAS)
	binary.BigEndian.PutUint16(rec[71:73], r.DstAS)
	if _, err := sw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("flowtools: write store record: %w", err)
	}
	return nil
}

// Flush flushes buffered data.
func (sw *StoreWriter) Flush() error {
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("flowtools: flush store: %w", err)
	}
	return nil
}

// StoreReader reads records back from the binary store format.
type StoreReader struct {
	r       *bufio.Reader
	version uint16
}

// NewStoreReader validates the header and returns a reader.
func NewStoreReader(r io.Reader) (*StoreReader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	if string(hdr[0:4]) != storeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadStore, hdr[0:4])
	}
	v := binary.BigEndian.Uint16(hdr[4:6])
	if v != storeVersion && v != storeVersionOld {
		return nil, fmt.Errorf("%w: version %d", ErrBadStoreVers, v)
	}
	return &StoreReader{r: br, version: v}, nil
}

// Read returns the next record, or io.EOF at end of store.
func (sr *StoreReader) Read() (flow.Record, error) {
	if sr.version == storeVersionOld {
		return sr.readV1()
	}
	var rec [storeRecordSize]byte
	if _, err := io.ReadFull(sr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return flow.Record{}, io.EOF
		}
		return flow.Record{}, fmt.Errorf("%w: truncated record: %v", ErrBadStore, err)
	}
	var src16, dst16 [16]byte
	copy(src16[:], rec[0:16])
	copy(dst16[:], rec[16:32])
	src, dst := netaddr.AddrFrom16(src16), netaddr.AddrFrom16(dst16)
	switch rec[32] {
	case byte(netaddr.FamilyV4):
		src, dst = src.Unmap(), dst.Unmap()
	case byte(netaddr.FamilyV6):
	case byte(netaddr.FamilyNone):
		src, dst = netaddr.Addr{}, netaddr.Addr{}
	default:
		return flow.Record{}, fmt.Errorf("%w: family byte %d", ErrBadStore, rec[32])
	}
	return flow.Record{
		Key: flow.Key{
			Src:     src,
			Dst:     dst,
			Proto:   rec[33],
			TOS:     rec[34],
			SrcPort: binary.BigEndian.Uint16(rec[37:39]),
			DstPort: binary.BigEndian.Uint16(rec[39:41]),
			InputIf: binary.BigEndian.Uint16(rec[41:43]),
		},
		TCPFlag: rec[35],
		SrcMask: rec[36],
		DstMask: rec[43],
		Packets: binary.BigEndian.Uint32(rec[45:49]),
		Bytes:   binary.BigEndian.Uint32(rec[49:53]),
		Start:   time.Unix(0, int64(binary.BigEndian.Uint64(rec[53:61]))).UTC(),
		End:     time.Unix(0, int64(binary.BigEndian.Uint64(rec[61:69]))).UTC(),
		SrcAS:   binary.BigEndian.Uint16(rec[69:71]),
		DstAS:   binary.BigEndian.Uint16(rec[71:73]),
	}, nil
}

// readV1 parses the pre-dual-stack 48-byte record (v4 addresses only).
func (sr *StoreReader) readV1() (flow.Record, error) {
	var rec [storeRecordSizeV1]byte
	if _, err := io.ReadFull(sr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return flow.Record{}, io.EOF
		}
		return flow.Record{}, fmt.Errorf("%w: truncated record: %v", ErrBadStore, err)
	}
	return flow.Record{
		Key: flow.Key{
			Src:     netaddr.IPv4(binary.BigEndian.Uint32(rec[0:4])).Addr(),
			Dst:     netaddr.IPv4(binary.BigEndian.Uint32(rec[4:8])).Addr(),
			Proto:   rec[8],
			TOS:     rec[9],
			SrcPort: binary.BigEndian.Uint16(rec[12:14]),
			DstPort: binary.BigEndian.Uint16(rec[14:16]),
			InputIf: binary.BigEndian.Uint16(rec[16:18]),
		},
		TCPFlag: rec[10],
		SrcMask: rec[11],
		DstMask: rec[18],
		Packets: binary.BigEndian.Uint32(rec[20:24]),
		Bytes:   binary.BigEndian.Uint32(rec[24:28]),
		Start:   time.Unix(0, int64(binary.BigEndian.Uint64(rec[28:36]))).UTC(),
		End:     time.Unix(0, int64(binary.BigEndian.Uint64(rec[36:44]))).UTC(),
		SrcAS:   binary.BigEndian.Uint16(rec[44:46]),
		DstAS:   binary.BigEndian.Uint16(rec[46:48]),
	}, nil
}

// ReadAll drains the remaining records.
func (sr *StoreReader) ReadAll() ([]flow.Record, error) {
	var out []flow.Record
	for {
		r, err := sr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}
