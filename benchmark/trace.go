package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced probe. Spans live in memory
// until the run ends; Parent is the id of the span that caused this one
// (-1 for the workload's root span). Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
