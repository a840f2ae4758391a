package eia

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infilter/internal/netaddr"
)

func TestSetWriteReadRoundTrip(t *testing.T) {
	s := NewSet(Config{})
	s.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	s.AddPrefix(1, netaddr.MustParsePrefix("88.32.0.0/11"))
	s.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))
	s.AddPrefix(3, netaddr.MustParsePrefix("4.2.101.0/24"))

	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := NewSet(Config{})
	if err := ReadInto(loaded, &buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("loaded %d prefixes, want %d", loaded.Len(), s.Len())
	}
	checks := []struct {
		peer PeerAS
		src  string
		want Verdict
	}{
		{1, "61.5.5.5", Match},
		{2, "70.5.5.5", Match},
		{3, "4.2.101.20", Match},
		{1, "70.5.5.5", WrongPeer},
		{1, "9.9.9.9", Unknown},
	}
	st := NewStore(loaded)
	for _, c := range checks {
		if got := st.Check(c.peer, netaddr.MustParseAddr(c.src)); got != c.want {
			t.Errorf("loaded Check(%d,%s) = %v, want %v", c.peer, c.src, got, c.want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := NewSet(Config{})
	s.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	s.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))
	s.AddPrefix(3, netaddr.MustParsePrefix("4.2.101.0/24"))

	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# infilter-eia-checkpoint v2\n") {
		t.Errorf("checkpoint header missing: %q", buf.String())
	}
	loaded := NewSet(Config{})
	if err := ReadCheckpointInto(loaded, &buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("loaded %d prefixes, want %d", loaded.Len(), s.Len())
	}
	if got := NewStore(loaded).Check(3, netaddr.MustParseAddr("4.2.101.20")); got != Match {
		t.Errorf("loaded Check = %v, want Match", got)
	}
	// A checkpoint is also a valid plain EIA file (header is a comment).
	var buf2 bytes.Buffer
	if err := s.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	plain := NewSet(Config{})
	if err := ReadInto(plain, &buf2); err != nil {
		t.Errorf("ReadInto of checkpoint: %v", err)
	}
	if plain.Len() != s.Len() {
		t.Errorf("plain load got %d prefixes, want %d", plain.Len(), s.Len())
	}
}

// TestCheckpointV1GoldenUpgrade restores from a committed pre-dual-stack
// checkpoint file (the exact bytes a v1 daemon wrote) and proves
// upgrade-on-write: the loaded state answers verdicts, and the next
// WriteCheckpoint emits the v2 family-tagged format — including any v6
// prefixes promoted after the restore, which v1 could not express.
func TestCheckpointV1GoldenUpgrade(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "checkpoint_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewSet(Config{})
	if err := ReadCheckpointInto(s, f); err != nil {
		t.Fatalf("restore from v1 golden: %v", err)
	}
	if s.Len() != 4 {
		t.Fatalf("restored %d prefixes, want 4", s.Len())
	}
	st := NewStore(s)
	for _, c := range []struct {
		peer PeerAS
		src  string
		want Verdict
	}{
		{1, "61.5.5.5", Match},
		{1, "88.40.0.1", Match},
		{2, "70.5.5.5", Match},
		{3, "4.2.101.20", Match},
		{2, "61.5.5.5", WrongPeer},
		{1, "9.9.9.9", Unknown},
	} {
		if got := st.Check(c.peer, netaddr.MustParseAddr(c.src)); got != c.want {
			t.Errorf("restored Check(%d,%s) = %v, want %v", c.peer, c.src, got, c.want)
		}
	}

	// The restarted daemon keeps learning — including v6 now — and its
	// next checkpoint flush rewrites the file in the v2 format.
	if !vouch(st, 2, netaddr.MustParseAddr("2001:db8:4000::1"), DefaultPromoteThreshold) {
		t.Fatal("v6 source never promoted after the v1 restore")
	}
	var buf bytes.Buffer
	if err := st.Snapshot().WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# infilter-eia-checkpoint v2\n" +
		"1 4 61.0.0.0/11\n" +
		"1 4 88.32.0.0/11\n" +
		"2 4 70.0.0.0/11\n" +
		"2 6 2001:db8:4000::/48\n" +
		"3 4 4.2.101.0/24\n"
	if buf.String() != want {
		t.Errorf("upgraded checkpoint:\n%s\nwant:\n%s", buf.String(), want)
	}
	reloaded := NewSet(Config{})
	if err := ReadCheckpointInto(reloaded, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("reload of upgraded checkpoint: %v", err)
	}
	if reloaded.Len() != 5 {
		t.Errorf("reloaded %d prefixes, want 5", reloaded.Len())
	}
	if got := NewStore(reloaded).Check(2, netaddr.MustParseAddr("2001:db8:4000::99")); got != Match {
		t.Errorf("reloaded v6 Check = %v, want Match", got)
	}
}

func TestReadCheckpointIntoRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",                                  // empty file
		"not a checkpoint\n",                // no header
		"1 61.0.0.0/11\n",                   // no header
		"# infilter-eia-checkpoint vX\n",    // unparsable version
		"# infilter-eia-checkpoint v99\n",   // future version
		"# some other comment\n1 6.0.0.0/8", // wrong header
		"# infilter-eia-checkpoint v1\n1 notacidr\n",        // bad row
		"# infilter-eia-checkpoint v1\nonlyfield\n",         // truncated row
		"# infilter-eia-checkpoint v1\n1 2001:db8::/32\n",   // v6 row predates v1
		"# infilter-eia-checkpoint v2\n1 61.0.0.0/11\n",     // v2 row without family tag
		"# infilter-eia-checkpoint v2\n1 6 61.0.0.0/11\n",   // family tag contradicts prefix
		"# infilter-eia-checkpoint v2\n1 4 2001:db8::/32\n", // family tag contradicts prefix
	} {
		if err := ReadCheckpointInto(NewSet(Config{}), strings.NewReader(bad)); err == nil {
			t.Errorf("ReadCheckpointInto(%q): want error", bad)
		}
	}
}

func TestReadIntoSkipsCommentsAndErrors(t *testing.T) {
	s := NewSet(Config{})
	if err := ReadInto(s, strings.NewReader("# header\n\n1 61.0.0.0/11\n")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("loaded %d prefixes", s.Len())
	}
	for _, bad := range []string{"onlyfield\n", "x 61.0.0.0/11\n", "1 notacidr\n", "1 2 3\n"} {
		if err := ReadInto(NewSet(Config{}), strings.NewReader(bad)); err == nil {
			t.Errorf("ReadInto(%q): want error", bad)
		}
	}
}

// checkpointBytes canonicalizes a set as its v2 checkpoint encoding; two
// sets are equal iff their encodings are byte-identical (rows are
// sorted, so the encoding is canonical).
func checkpointBytes(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestMergeGoldenCheckpointRoundTrip pins the v2 checkpoint bytes of a
// fixed dual-stack set: writing it must produce exactly the committed
// golden, and decoding those bytes through the format's one reader and
// re-encoding must round-trip byte-identically. A change to the row
// codec or the sort order shows up here as a golden diff.
func TestMergeGoldenCheckpointRoundTrip(t *testing.T) {
	s := NewSet(Config{})
	s.AddPrefix(2, netaddr.MustParsePrefix("4.0.0.0/8"))
	s.AddPrefix(1, netaddr.MustParsePrefix("10.1.0.0/16"))
	s.AddPrefix(1, netaddr.MustParsePrefix("2001:db8::/48"))
	s.AddPrefix(4, netaddr.MustParsePrefix("192.0.2.0/24"))
	s.AddPrefix(4, netaddr.MustParsePrefix("2001:db8:ff::/64"))

	got := checkpointBytes(t, s)

	goldenPath := filepath.Join("testdata", "merge_checkpoint_v2.golden")
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("checkpoint differs from %s:\n--- got ---\n%s--- want ---\n%s",
			goldenPath, got, golden)
	}

	decoded := NewSet(Config{})
	if err := ReadCheckpointInto(decoded, bytes.NewReader(golden)); err != nil {
		t.Fatalf("ReadCheckpointInto(golden): %v", err)
	}
	if again := checkpointBytes(t, decoded); !bytes.Equal(again, golden) {
		t.Fatalf("decode→re-encode not byte-identical:\n--- got ---\n%s--- want ---\n%s", again, golden)
	}
}

// TestDecodeCheckpointRejectsGarbage decodes a stream that is not a
// checkpoint into a fresh untuned set, as a warm restart would meet a
// foreign file in the state directory: the reader must refuse it.
func TestDecodeCheckpointRejectsGarbage(t *testing.T) {
	if err := ReadCheckpointInto(NewSet(Config{}), strings.NewReader("not a checkpoint\n")); err == nil {
		t.Error("ReadCheckpointInto accepted a headerless stream")
	}
}
