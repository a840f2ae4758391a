package netflow

import (
	"encoding/binary"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// FuzzDecodeDatagram throws arbitrary bytes at Decode, the entry point
// the daemon's collector runs, seeded with v5 datagrams. An accepted v5
// datagram must yield its header's record count, and re-encoding those
// records through V5Encoder at the decoded boot and export time must
// decode to equal records at the same export time: the round trip the
// replay testbed and the daemon's ingest rely on.
func FuzzDecodeDatagram(f *testing.F) {
	// Seed corpus: an empty datagram, a full 30-record datagram with the
	// header fields Decode skips set, boundary cuts and known-bad forms.
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	full := NewV5Encoder(boot, 7).Encode(exportSample(MaxRecords), boot.Add(time.Hour+999))[0].Raw
	full[20], full[23] = 1, 10 // engine type 1, sampling interval 10
	empty := append([]byte(nil), full[:v5HeaderSize]...)
	empty[2], empty[3] = 0, 0
	f.Add(empty)
	f.Add(full)
	f.Add(full[:v5HeaderSize])                            // header only, count lies
	f.Add(full[:v5HeaderSize+v5RecordSize/2])             // truncated mid-record
	f.Add([]byte{0, 9, 0, 0})                             // wrong version, short
	f.Add(append(full[:len(full):len(full)], 0xff, 0xee)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data, NewDecodeBuffer(nil))
		if err != nil || msg.Version != VersionV5 {
			return // rejected input: only panics are failures here
		}
		if count := int(binary.BigEndian.Uint16(data[2:4])); len(msg.Records) != count {
			t.Fatalf("decoded %d records, header count %d", len(msg.Records), count)
		}
		uptime := time.Duration(binary.BigEndian.Uint32(data[4:8])) * time.Millisecond
		want := append([]flow.Record(nil), msg.Records...)
		enc := NewV5Encoder(msg.ExportTime.Add(-uptime), uint8(msg.Domain))
		var got []flow.Record
		for _, m := range decodeAll(t, enc.Encode(want, msg.ExportTime)) {
			if !m.ExportTime.Equal(msg.ExportTime) {
				t.Fatalf("export time after re-encode: got %v want %v", m.ExportTime, msg.ExportTime)
			}
			got = append(got, m.Records...)
		}
		if len(got) != len(want) {
			t.Fatalf("re-decoded %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !equalRecord(got[i], want[i]) {
				t.Fatalf("record %d after re-encode: got %+v want %+v", i, got[i], want[i])
			}
		}
	})
}

// fuzzSeedStream builds seed datagrams for one template-based encoder:
// a template datagram, data datagrams before and after it (exercising the
// orphan path), and truncations of each.
func fuzzSeedStream(f *testing.F, enc WireEncoder) {
	boot := time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC)
	var recs []flow.Record
	for i := 0; i < 3; i++ {
		recs = append(recs, flow.Record{
			Key: flow.Key{
				Src: netaddr.IPv4(0x3d000000 + uint32(i)).Addr(), Dst: netaddr.IPv4(0xc0000201).Addr(),
				Proto: flow.ProtoTCP, SrcPort: uint16(1024 + i), DstPort: 80,
				InputIf: 2,
			},
			Packets: uint32(1 + i), Bytes: uint32(40 * (1 + i)),
			Start: boot.Add(time.Second), End: boot.Add(2 * time.Second),
			SrcAS: 65001, DstAS: 65002, SrcMask: 11, DstMask: 24,
		})
	}
	for _, wd := range enc.Encode(recs, boot.Add(time.Minute)) {
		f.Add(wd.Raw)
		if len(wd.Raw) > 6 {
			f.Add(wd.Raw[:len(wd.Raw)-5])
		}
	}
	for _, wd := range enc.Flush(boot.Add(time.Minute)) {
		f.Add(wd.Raw)
	}
}

// fuzzTemplateDecode is the shared property check for the template-based
// decoders: corrupt bytes must error (never panic), records decoded from
// this datagram's own bytes must be bounded by its size (every record
// consumes at least one byte — zero-length templates are rejected), and
// the orphan buffer must respect its bound no matter what arrives.
// Records replayed from previously buffered orphan data sets when their
// template arrives (msg.Resolved) are excluded: they were decoded from
// earlier datagrams' bytes, and the orphan buffer bound below caps how
// much can be pending.
func fuzzTemplateDecode(t *testing.T, cache *TemplateCache, buf *DecodeBuffer, data []byte) {
	msg, err := Decode(data, buf)
	if err != nil {
		return
	}
	if own := len(msg.Records) - msg.Resolved; own > len(data) {
		t.Fatalf("%d records decoded from %d bytes", own, len(data))
	}
	if n := cache.OrphanCount(); n > DefaultMaxOrphans {
		t.Fatalf("orphan buffer leaked: %d > bound %d", n, DefaultMaxOrphans)
	}
	if n := cache.Len(); n > DefaultMaxTemplates {
		t.Fatalf("template cache leaked: %d > bound %d", n, DefaultMaxTemplates)
	}
}

// FuzzDecodeV9 throws arbitrary bytes at the v9 decoder, with template
// state accumulating across inputs as it would across a fuzzed exporter's
// stream.
func FuzzDecodeV9(f *testing.F) {
	withTemplate := NewV9Encoder(time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC), 7)
	fuzzSeedStream(f, withTemplate)
	delayed := NewV9Encoder(time.Date(2005, 4, 1, 0, 0, 0, 0, time.UTC), 7)
	delayed.SetTemplateDelay(10)
	fuzzSeedStream(f, delayed)
	f.Add([]byte{0, 9, 0, 0})

	cache := NewTemplateCache(TemplateCacheConfig{})
	buf := NewDecodeBuffer(cache)
	buf.SetExporter("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTemplateDecode(t, cache, buf, data)
	})
}

// FuzzDecodeIPFIX is the IPFIX twin of FuzzDecodeV9, additionally
// covering enterprise fields, withdrawals and variable-length records via
// mutation of the seeded stream.
func FuzzDecodeIPFIX(f *testing.F) {
	withTemplate := NewIPFIXEncoder(7)
	fuzzSeedStream(f, withTemplate)
	delayed := NewIPFIXEncoder(7)
	delayed.SetTemplateDelay(10)
	fuzzSeedStream(f, delayed)
	f.Add([]byte{0, 10, 0, 16})

	cache := NewTemplateCache(TemplateCacheConfig{})
	buf := NewDecodeBuffer(cache)
	buf.SetExporter("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzTemplateDecode(t, cache, buf, data)
	})
}
