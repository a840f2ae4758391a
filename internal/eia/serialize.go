package eia

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"infilter/internal/netaddr"
)

// ReadInto loads "<peerAS> <cidr>" lines into the set (either family;
// ParsePrefix tells them apart). Blank lines and '#' comments are
// skipped, and family-tagged "<peerAS> <family> <cidr>" rows are read
// too, so a checkpoint written by WriteCheckpoint is a valid EIA file.
func ReadInto(s *Set, r io.Reader) error {
	return readLines(bufio.NewScanner(r), 0, s, 0)
}

// readLines parses prefix rows from sc into s, with line numbers in
// errors offset by startLine (the count of lines a caller already
// consumed, e.g. a checkpoint header). version selects the row grammar:
// 0 (plain EIA file) and 1 (legacy checkpoint) are "<peerAS> <cidr>" —
// with v1 additionally rejecting v6 rows, since the v1 format predates
// dual-stack and a v6 row in one means the file is corrupt — and 2 is
// the family-tagged "<peerAS> <family> <cidr>", where the tag must agree
// with the parsed prefix.
func readLines(sc *bufio.Scanner, startLine int, s *Set, version int) error {
	line := startLine
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		cidr, famTag := "", ""
		switch {
		case version < 2 && len(fields) == 2:
			cidr = fields[1]
		case version != 1 && len(fields) == 3:
			// v2 checkpoint rows — or a family-tagged checkpoint body
			// loaded through plain ReadInto, which stays a valid EIA file.
			famTag, cidr = fields[1], fields[2]
		case version == 2:
			return fmt.Errorf("eia: line %d: want '<peerAS> <family> <cidr>', got %q", line, text)
		default:
			return fmt.Errorf("eia: line %d: want '<peerAS> <cidr>', got %q", line, text)
		}
		peer, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return fmt.Errorf("eia: line %d: peer AS: %w", line, err)
		}
		pfx, err := netaddr.ParsePrefix(cidr)
		if err != nil {
			return fmt.Errorf("eia: line %d: %w", line, err)
		}
		if version == 1 && pfx.Family() != netaddr.FamilyV4 {
			return fmt.Errorf("eia: line %d: v1 checkpoint carries non-v4 prefix %q", line, cidr)
		}
		if famTag != "" && famTag != pfx.Family().String() {
			return fmt.Errorf("eia: line %d: family tag %q does not match prefix %q", line, famTag, cidr)
		}
		s.AddPrefix(PeerAS(peer), pfx)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("eia: read: %w", err)
	}
	return nil
}

// Checkpoint format: a mandatory versioned header line followed by the
// prefix rows. The header is a '#' comment, so a v1 checkpoint file
// still loads through plain ReadInto; ReadCheckpointInto additionally
// rejects files that lack the header or carry an unknown version, which
// is what the warm-restart path wants (a truncated or foreign file must
// not be silently accepted as empty EIA state).
//
// v1 rows are "<peerAS> <cidr>" and v4-only (the format predates
// dual-stack). v2 rows are "<peerAS> <family> <cidr>" with family "4" or
// "6". Writers always emit v2; readers accept both, so a daemon restarted
// over a v1 state directory loads it as v4-only EIA state and upgrades
// the file to v2 at its next checkpoint flush.
const (
	checkpointMagic      = "# infilter-eia-checkpoint v"
	checkpointVersion    = 2
	checkpointVersionOld = 1
)

// WriteCheckpoint writes a versioned EIA checkpoint: the header, then
// one "<peerAS> <family> <cidr>" row per prefix, sorted peer-major, then
// v4 before v6, then by address, so output is stable and diffs cleanly.
// It is the EIA state's one writer: the warm-restart artifact is these
// bytes, taken from a Store's Snapshot. A Store's pending vouch counters
// are transient and not saved.
func (s *Set) WriteCheckpoint(w io.Writer) error {
	type row struct {
		peer PeerAS
		pfx  netaddr.Prefix
	}
	var rows []row
	s.index.Walk(func(p netaddr.Prefix, peer PeerAS) bool {
		rows = append(rows, row{peer: peer, pfx: p})
		return true
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].peer != rows[j].peer {
			return rows[i].peer < rows[j].peer
		}
		if rows[i].pfx.Addr() != rows[j].pfx.Addr() {
			return rows[i].pfx.Addr().Less(rows[j].pfx.Addr())
		}
		return rows[i].pfx.Bits() < rows[j].pfx.Bits()
	})
	if _, err := fmt.Fprintf(w, "%s%d\n", checkpointMagic, checkpointVersion); err != nil {
		return fmt.Errorf("eia: write checkpoint header: %w", err)
	}
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		if _, err := fmt.Fprintf(bw, "%d %s %s\n", r.peer, r.pfx.Family(), r.pfx); err != nil {
			return fmt.Errorf("eia: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("eia: flush: %w", err)
	}
	return nil
}

// ReadCheckpointInto loads a checkpoint written by WriteCheckpoint into
// s. It is the format's one reader: the warm-restart load from a state
// directory goes through it. Malformed input — a missing or unversioned
// header, an unsupported version, or any malformed row — returns an
// error; it never panics, so a corrupt or truncated checkpoint file
// fails a warm restart loudly instead of poisoning the EIA state.
func ReadCheckpointInto(s *Set, r io.Reader) error {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("eia: read checkpoint: %w", err)
		}
		return fmt.Errorf("eia: checkpoint: empty file")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, checkpointMagic) {
		return fmt.Errorf("eia: checkpoint: bad header %q", header)
	}
	v, err := strconv.Atoi(strings.TrimPrefix(header, checkpointMagic))
	if err != nil {
		return fmt.Errorf("eia: checkpoint: bad version in header %q", header)
	}
	if v != checkpointVersion && v != checkpointVersionOld {
		return fmt.Errorf("eia: checkpoint version %d, want %d or %d", v, checkpointVersionOld, checkpointVersion)
	}
	return readLines(sc, 1, s, v)
}
