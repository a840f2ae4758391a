// Package checkpoint runs the warm-restart loop of infilterd: it
// periodically serializes runtime state artifacts (the EIA snapshot
// store, the trained NNS detector) into a state directory, each write
// going to a temporary file that is atomically renamed into place, so a
// crash mid-write can never corrupt the previous good checkpoint. On
// startup the daemon loads whatever checkpoints the directory holds and
// resumes with its learned state — EIA promotions and the trained NNS
// clusters survive a restart.
package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"infilter/internal/telemetry"
)

// DefaultInterval is the checkpoint period when none is configured.
const DefaultInterval = 30 * time.Second

// Metrics instruments the checkpoint loop: completed passes, failed
// artifact writes, and the latency of one full checkpoint pass. The zero
// value is a manager's uninstrumented default: its nil counters discard
// counts.
type Metrics struct {
	Writes  *telemetry.Counter
	Errors  *telemetry.Counter
	Latency *telemetry.Histogram
}

// NewMetrics registers the checkpoint series on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		Writes: r.Counter("infilter_checkpoint_writes_total",
			"Completed checkpoint passes (all artifacts written and renamed)."),
		Errors: r.Counter("infilter_checkpoint_errors_total",
			"Artifact writes that failed (previous checkpoint left in place)."),
		Latency: r.Histogram("infilter_checkpoint_write_seconds",
			"Latency of one full checkpoint pass.",
			telemetry.LatencyBuckets(), telemetry.UnitSeconds),
	}
}

// Artifact is one piece of state the manager checkpoints: a file name
// inside the state directory and a serializer. Write must produce a
// complete, self-validating encoding (the EIA and NNS serializers both
// carry format versions) and must be safe to call from the manager's
// background goroutine — both engine stores satisfy this by serializing
// an immutable snapshot.
type Artifact struct {
	Name  string
	Write func(io.Writer) error
}

// Config tunes a Manager.
type Config struct {
	// Dir is the state directory; it is created if absent.
	Dir string
	// Interval between background checkpoint passes. Zero defaults to
	// DefaultInterval.
	Interval time.Duration
}

// Manager owns the background checkpoint loop. Start launches it; Close
// stops it and writes one final checkpoint, which is the SIGTERM flush —
// by running after the analysis engine has drained, it captures every
// promotion the drain produced.
type Manager struct {
	cfg     Config
	arts    []Artifact
	metrics *Metrics

	stop    chan struct{}
	done    chan struct{}
	started bool
	once    sync.Once
}

// NewManager validates the configuration and prepares the state
// directory. Artifact names must be plain file names, unique within the
// manager. A nil m leaves the manager uninstrumented.
func NewManager(cfg Config, m *Metrics, arts ...Artifact) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("checkpoint: empty state dir")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if len(arts) == 0 {
		return nil, fmt.Errorf("checkpoint: no artifacts")
	}
	seen := make(map[string]bool, len(arts))
	for _, a := range arts {
		if a.Name == "" || a.Name != filepath.Base(a.Name) {
			return nil, fmt.Errorf("checkpoint: bad artifact name %q", a.Name)
		}
		if a.Write == nil {
			return nil, fmt.Errorf("checkpoint: artifact %s has no writer", a.Name)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("checkpoint: duplicate artifact %s", a.Name)
		}
		seen[a.Name] = true
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: state dir: %w", err)
	}
	if m == nil {
		m = &Metrics{}
	}
	return &Manager{
		cfg:     cfg,
		arts:    arts,
		metrics: m,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the background loop. It must be called at most once.
func (m *Manager) Start() {
	m.started = true
	go m.loop()
}

func (m *Manager) loop() {
	defer close(m.done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.WriteNow() // errors are counted; the loop keeps trying
		case <-m.stop:
			return
		}
	}
}

// WriteNow performs one checkpoint pass: every artifact is serialized to
// a temporary file and renamed into place. The first error is returned;
// remaining artifacts are still attempted, and a failed artifact leaves
// its previous checkpoint untouched.
func (m *Manager) WriteNow() error {
	start := time.Now()
	var firstErr error
	failed := false
	for _, a := range m.arts {
		if err := WriteAtomic(filepath.Join(m.cfg.Dir, a.Name), a.Write); err != nil {
			failed = true
			m.metrics.Errors.Inc()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	m.metrics.Latency.ObserveDuration(time.Since(start))
	if !failed {
		m.metrics.Writes.Inc()
	}
	return firstErr
}

// Close stops the background loop (if started) and writes the final
// checkpoint. It is idempotent; only the first call writes.
func (m *Manager) Close() error {
	var err error
	m.once.Do(func() {
		if m.started {
			close(m.stop)
			<-m.done
		}
		err = m.WriteNow()
	})
	return err
}

// WriteAtomic serializes via write into path.tmp and renames it over
// path, so readers only ever observe the previous complete file or the
// new complete file. On any failure the temporary file is removed and
// path is left untouched.
func WriteAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: create %s: %w", tmp, err)
	}
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(fmt.Errorf("checkpoint: write %s: %w", tmp, err))
	}
	// Flush to stable storage before the rename publishes the file: a
	// crash after rename must not leave a renamed-but-empty checkpoint.
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: sync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: publish %s: %w", path, err)
	}
	return nil
}

// Load opens the named artifact in dir and feeds it to load. It reports
// ok=false without error when no checkpoint exists (first boot), and
// never reads temporary files — a crash mid-write leaves only a *.tmp,
// which is invisible to Load. A checkpoint that exists but fails load
// returns the loader's error so a corrupt state dir fails the restart
// loudly instead of silently starting cold.
func Load(dir, name string, load func(io.Reader) error) (ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: open %s: %w", name, err)
	}
	defer f.Close()
	if err := load(f); err != nil {
		return false, fmt.Errorf("checkpoint: load %s: %w", name, err)
	}
	return true, nil
}
