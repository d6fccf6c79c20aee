package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded around a call into a layer. Parent
// is the index of the span that was open when this one began (-1 at the
// top), Pass the measured pass the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is what the untraced run uses. Spans nest strictly: only
// the benchmark's single driver goroutine opens them.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	pass  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Pass: t.pass, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// mark returns the current span count, so a phase can later look only at
// the spans it recorded itself.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover: the time a layer spent in its own code.
func selfTimes(spans []span) map[string]int64 {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - children[i]
	}
	return self
}

// rebase returns spans[from:] with parent indices shifted to match, so the
// slice can be handed to selfTimes on its own.
func rebase(spans []span, from int) []span {
	out := append([]span(nil), spans[from:]...)
	for i := range out {
		out[i].Parent -= from
	}
	return out
}

// durations returns the duration in nanoseconds of every span of a name.
func durations(spans []span, name string) sample {
	var out sample
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
