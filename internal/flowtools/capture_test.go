package flowtools

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"infilter/internal/flow"
)

// writeJunk drops non-archive files into dir to check they are ignored.
func writeJunk(dir string) error {
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("junk"), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "other.dat"), []byte("junk"), 0o644)
}

func TestCaptureRotatesByInterval(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCapture(dir, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2005, 4, 1, 12, 0, 0, 0, time.UTC)
	var want []flow.Record
	for i := 0; i < 30; i++ {
		r := rec("61.0.0.1", uint16(1000+i), flow.ProtoTCP, uint32(i+1), 100, time.Second)
		r.Start = base.Add(time.Duration(i) * time.Minute)
		r.End = r.Start.Add(time.Second)
		want = append(want, r)
		if err := c.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := ArchiveFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 30 minutes of flows at a 10-minute rotation: 3-4 files.
	if len(files) < 3 || len(files) > 4 {
		t.Errorf("archive has %d files: %v", len(files), files)
	}
	got, err := ReadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("archive holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestCaptureAppendsToExistingSlot(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2005, 4, 1, 12, 0, 0, 0, time.UTC)
	write := func(n int, port uint16) {
		t.Helper()
		c, err := NewCapture(dir, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			r := rec("61.0.0.1", port, flow.ProtoTCP, 1, 40, 0)
			r.Start, r.End = base, base.Add(time.Second)
			if err := c.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(3, 80)
	write(2, 443) // re-open the same hour slot

	files, err := ArchiveFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("archive has %d files, want 1", len(files))
	}
	got, err := ReadArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("archive holds %d records, want 5", len(got))
	}
	if got[3].Key.DstPort != 443 {
		t.Errorf("appended record port %d", got[3].Key.DstPort)
	}
}

func TestCaptureClosedRejectsWrites(t *testing.T) {
	c, err := NewCapture(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := c.Write(rec("61.0.0.1", 80, flow.ProtoTCP, 1, 40, 0)); err == nil {
		t.Error("Write after Close: want error")
	}
}

func TestArchiveIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCapture(dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	r := rec("61.0.0.1", 80, flow.ProtoTCP, 1, 40, 0)
	if err := c.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeJunk(dir); err != nil {
		t.Fatal(err)
	}
	files, err := ArchiveFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("archive lists %d files, want only the capture file", len(files))
	}
}

func TestReadArchiveMissingDir(t *testing.T) {
	if _, err := ReadArchive("/no/such/dir/anywhere"); err == nil {
		t.Error("missing dir: want error")
	}
}
