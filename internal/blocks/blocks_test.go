package blocks

import (
	"testing"
	"testing/quick"

	"infilter/internal/netaddr"
)

func TestTable1Shape(t *testing.T) {
	blks := Table1()
	if len(blks) != NumBlocks {
		t.Fatalf("Table1 has %d blocks, want %d", len(blks), NumBlocks)
	}
	for i, p := range blks {
		if p.Bits() != 8 {
			t.Errorf("block %d is /%d, want /8", i, p.Bits())
		}
		if i > 0 && !blks[i-1].Addr().Less(p.Addr()) {
			t.Errorf("blocks not ascending at index %d", i)
		}
	}
	// Spot-check endpoints and known members from the paper's table.
	if blks[0] != netaddr.MustParsePrefix("3.0.0.0/8") {
		t.Errorf("first block = %v, want 3.0.0.0/8", blks[0])
	}
	if blks[NumBlocks-1] != netaddr.MustParsePrefix("222.0.0.0/8") {
		t.Errorf("last block = %v, want 222.0.0.0/8", blks[NumBlocks-1])
	}
	// 125th block (1-based) must be 204/8: the experiments use blocks 3/8
	// through 204/8 for their 1000 sub-blocks.
	if blks[124] != netaddr.MustParsePrefix("204.0.0.0/8") {
		t.Errorf("block 125 = %v, want 204.0.0.0/8", blks[124])
	}
}

func TestTable1ExcludesReservedBlocks(t *testing.T) {
	present := map[byte]bool{}
	for _, p := range Table1() {
		v4, _ := p.Addr().V4()
		a, _, _, _ := v4.Octets()
		present[a] = true
	}
	// A few well-known non-routable or unallocated first octets the table
	// omits: 0, 1, 2, 5, 7, 10 (RFC1918), 23, 27, 31, 127 (loopback),
	// 173..187 (unallocated then), 223, multicast 224+.
	for _, o := range []byte{0, 1, 2, 5, 7, 10, 23, 27, 31, 127, 173, 187, 189, 190, 197, 223, 224, 240, 255} {
		if present[o] {
			t.Errorf("block %d/8 should not be in Table 1", o)
		}
	}
}

func TestSubBlockNotation(t *testing.T) {
	tests := []struct {
		notation string
		prefix   string
	}{
		// Worked examples straight from §6.2.
		{"1a", "3.0.0.0/11"},
		{"1b", "3.32.0.0/11"},
		{"2c", "4.64.0.0/11"},
		{"5a", "9.0.0.0/11"},
		{"125h", "204.224.0.0/11"},
		// The 214/8 breakdown example (214/8 is the 135th block).
		{"135a", "214.0.0.0/11"},
		{"135d", "214.96.0.0/11"},
		{"135h", "214.224.0.0/11"},
	}
	for _, tt := range tests {
		sb, err := ParseNotation(tt.notation)
		if err != nil {
			t.Errorf("ParseNotation(%q): %v", tt.notation, err)
			continue
		}
		if got := sb.Prefix().String(); got != tt.prefix {
			t.Errorf("%s.Prefix() = %s, want %s", tt.notation, got, tt.prefix)
		}
		if sb.String() != tt.notation {
			t.Errorf("String() = %q, want %q", sb.String(), tt.notation)
		}
	}
}

func TestParseNotationErrors(t *testing.T) {
	for _, in := range []string{"", "a", "1i", "0a", "144a", "-1a", "1A", "x9a"} {
		if _, err := ParseNotation(in); err == nil {
			t.Errorf("ParseNotation(%q): want error", in)
		}
	}
}

func TestSubBlockRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		i := int(raw) % NumSubBlocks
		sb := MustSubBlockAt(i)
		back, err := ParseNotation(sb.String())
		return err == nil && back.Index() == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSubBlocksCoverTheirBlockDisjointly(t *testing.T) {
	// The 8 sub-blocks of any block partition the /8 without overlap.
	for b := 0; b < NumBlocks; b++ {
		block := Table1()[b]
		var total uint64
		for l := 0; l < SubBlocksPerBlock; l++ {
			sb := MustSubBlockAt(b*SubBlocksPerBlock + l)
			p := sb.Prefix()
			if !block.Contains(p.Addr()) || !block.Contains(p.Last()) {
				t.Fatalf("sub-block %v not inside block %v", sb, block)
			}
			total += p.Size()
			if l > 0 {
				prev := MustSubBlockAt(b*SubBlocksPerBlock + l - 1).Prefix()
				if prev.Contains(p.Addr()) {
					t.Fatalf("sub-blocks overlap in block %v", block)
				}
			}
		}
		if total != block.Size() {
			t.Fatalf("sub-blocks of %v cover %d addresses, want %d", block, total, block.Size())
		}
	}
}

func TestSubBlockAtRange(t *testing.T) {
	if _, err := SubBlockAt(-1); err == nil {
		t.Error("SubBlockAt(-1): want error")
	}
	if _, err := SubBlockAt(NumSubBlocks); err == nil {
		t.Error("SubBlockAt(max): want error")
	}
	if sb, err := SubBlockAt(NumSubBlocks - 1); err != nil || sb.String() != "143h" {
		t.Errorf("last sub-block = %v, %v; want 143h", sb, err)
	}
}

func TestEIAAllocationTable3(t *testing.T) {
	// Table 3: Peer AS1 1a-13d, AS2 13e-25h, ..., AS10 113e-125h.
	wantFirstLast := []struct{ first, last string }{
		{"1a", "13d"}, {"13e", "25h"}, {"26a", "38d"}, {"38e", "50h"},
		{"51a", "63d"}, {"63e", "75h"}, {"76a", "88d"}, {"88e", "100h"},
		{"101a", "113d"}, {"113e", "125h"},
	}
	for as := 1; as <= DefaultSources; as++ {
		set, err := EIAAllocation(as)
		if err != nil {
			t.Fatalf("EIAAllocation(%d): %v", as, err)
		}
		if len(set) != SubBlocksPerSource {
			t.Fatalf("peer AS %d has %d sub-blocks, want %d", as, len(set), SubBlocksPerSource)
		}
		w := wantFirstLast[as-1]
		if set[0].String() != w.first || set[len(set)-1].String() != w.last {
			t.Errorf("peer AS %d range %s-%s, want %s-%s",
				as, set[0], set[len(set)-1], w.first, w.last)
		}
	}
	if _, err := EIAAllocation(0); err == nil {
		t.Error("EIAAllocation(0): want error")
	}
	if _, err := EIAAllocation(11); err == nil {
		t.Error("EIAAllocation(11): want error")
	}
}

func TestScheduleMatchesTable2(t *testing.T) {
	s, err := NewSchedule(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Table 2, Allocation 1.
	alloc1Change := [][]string{
		{"113d", "125g"}, {"13c", "125h"}, {"13d", "25g"}, {"25h", "38c"},
		{"38d", "50g"}, {"50h", "63c"}, {"63d", "75g"}, {"75h", "88c"},
		{"88d", "100g"}, {"100h", "113c"},
	}
	// Table 2, Allocation 2.
	alloc2Change := [][]string{
		{"100h", "113c"}, {"113d", "125g"}, {"13c", "125h"}, {"13d", "25g"},
		{"25h", "38c"}, {"38d", "50g"}, {"50h", "63c"}, {"63d", "75g"},
		{"75h", "88c"}, {"88d", "100g"},
	}
	checkAlloc := func(alloc []SourceAllocation, want [][]string, name string) {
		t.Helper()
		for i, sa := range alloc {
			if got := len(sa.NormalSet); got != 98 {
				t.Errorf("%s S%d normal set size %d, want 98", name, i+1, got)
			}
			if len(sa.ChangeSet) != 2 {
				t.Fatalf("%s S%d change set size %d, want 2", name, i+1, len(sa.ChangeSet))
			}
			gotSet := map[string]bool{
				sa.ChangeSet[0].String(): true,
				sa.ChangeSet[1].String(): true,
			}
			for _, w := range want[i] {
				if !gotSet[w] {
					t.Errorf("%s S%d change set %v missing %s", name, i+1, sa.ChangeSet, w)
				}
			}
		}
	}
	checkAlloc(s.Allocations[0], alloc1Change, "allocation 1")
	checkAlloc(s.Allocations[1], alloc2Change, "allocation 2")

	// Normal-set boundaries, from Table 2: S1 uses 1a-13b, S2 13e-25f.
	a1 := s.Allocations[0]
	if a1[0].NormalSet[0].String() != "1a" || a1[0].NormalSet[97].String() != "13b" {
		t.Errorf("S1 normal set %s-%s, want 1a-13b",
			a1[0].NormalSet[0], a1[0].NormalSet[97])
	}
	if a1[1].NormalSet[0].String() != "13e" || a1[1].NormalSet[97].String() != "25f" {
		t.Errorf("S2 normal set %s-%s, want 13e-25f",
			a1[1].NormalSet[0], a1[1].NormalSet[97])
	}
}

func TestScheduleValidateAllRates(t *testing.T) {
	for _, pct := range []int{0, 1, 2, 4, 8} {
		s, err := NewSchedule(pct, 4)
		if err != nil {
			t.Fatalf("NewSchedule(%d): %v", pct, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Validate at %d%%: %v", pct, err)
		}
		if len(s.Allocations) != 4 {
			t.Errorf("%d%%: %d allocations, want 4", pct, len(s.Allocations))
		}
		for _, sa := range s.Allocations[0] {
			if len(sa.ChangeSet) != pct {
				t.Errorf("%d%%: S%d change set size %d", pct, sa.Source, len(sa.ChangeSet))
			}
		}
	}
}

func TestScheduleRejectsBadRates(t *testing.T) {
	if _, err := NewSchedule(-1, 1); err == nil {
		t.Error("NewSchedule(-1): want error")
	}
	if _, err := NewSchedule(101, 1); err == nil {
		t.Error("NewSchedule(101): want error")
	}
}

func TestRangePanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Range with bad bounds did not panic")
		}
	}()
	Range(5, 4)
}
