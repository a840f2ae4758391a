package flowtools

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"infilter/internal/flow"
)

// Capture persists received flows into time-rotated binary store files in
// a directory, the way flow-capture organizes its archive: each file is
// named ft-<start>.iffs and covers one rotation interval of flow end
// times. Safe for concurrent Write calls.
type Capture struct {
	dir      string
	interval time.Duration

	mu      sync.Mutex
	curName string
	curFile *os.File
	curW    *StoreWriter
	closed  bool
}

// DefaultRotation is the default file rotation interval.
const DefaultRotation = 15 * time.Minute

// capturePrefix and captureSuffix frame archive file names.
const (
	capturePrefix = "ft-"
	captureSuffix = ".iffs"
)

// NewCapture creates (if needed) the archive directory and returns a
// rotating capture writer.
func NewCapture(dir string, interval time.Duration) (*Capture, error) {
	if interval <= 0 {
		interval = DefaultRotation
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flowtools: capture dir: %w", err)
	}
	return &Capture{dir: dir, interval: interval}, nil
}

// fileFor returns the archive file name covering t.
func (c *Capture) fileFor(t time.Time) string {
	slot := t.UTC().Truncate(c.interval)
	return capturePrefix + slot.Format("20060102-150405") + captureSuffix
}

// Write appends one flow record to the archive file covering its end time,
// rotating as needed.
func (c *Capture) Write(r flow.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("flowtools: capture closed")
	}
	name := c.fileFor(r.End)
	if name != c.curName {
		if err := c.rotateLocked(name); err != nil {
			return err
		}
	}
	if err := c.curW.Write(r); err != nil {
		return err
	}
	return nil
}

func (c *Capture) rotateLocked(name string) error {
	if err := c.closeCurrentLocked(); err != nil {
		return err
	}
	path := filepath.Join(c.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("flowtools: open archive %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("flowtools: stat archive %s: %w", path, err)
	}
	var sw *StoreWriter
	if info.Size() == 0 {
		sw, err = NewStoreWriter(f)
	} else {
		// Appending to an existing slot file: header already present.
		sw, err = appendStoreWriter(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	c.curName, c.curFile, c.curW = name, f, sw
	return nil
}

func (c *Capture) closeCurrentLocked() error {
	if c.curFile == nil {
		return nil
	}
	if err := c.curW.Flush(); err != nil {
		c.curFile.Close()
		return err
	}
	err := c.curFile.Close()
	c.curName, c.curFile, c.curW = "", nil, nil
	if err != nil {
		return fmt.Errorf("flowtools: close archive: %w", err)
	}
	return nil
}

// Close flushes and closes the current archive file. Further Writes fail.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.closeCurrentLocked()
}

// ArchiveFiles lists the archive's store files in chronological order.
func ArchiveFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("flowtools: read archive dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, capturePrefix) && strings.HasSuffix(name, captureSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// ReadArchive loads every record from the archive, in file order.
func ReadArchive(dir string) ([]flow.Record, error) {
	files, err := ArchiveFiles(dir)
	if err != nil {
		return nil, err
	}
	var out []flow.Record
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("flowtools: open %s: %w", path, err)
		}
		sr, err := NewStoreReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("flowtools: %s: %w", path, err)
		}
		recs, err := sr.ReadAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flowtools: %s: %w", path, err)
		}
		out = append(out, recs...)
	}
	return out, nil
}
