package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the
// run ends.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int32         // index of the enclosing span, -1 at a root
	op         int32         // op index, -1 during set-up
}

// tracer records spans around the benchmark's own calls into each
// layer. When off, span only calls the function, so the untraced run
// pays nothing but a branch. While a span is open its name is the
// goroutine's "span" pprof label, so a CPU profile of the traced run
// splits nested layers such as sat inside attack.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// span runs f inside a span named name.
func (t *tracer) span(name string, f func() error) error {
	if !t.on {
		return f()
	}
	i := t.begin(name)
	err := f()
	t.end(i)
	return err
}

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op})
	t.open = append(t.open, i)
	setLabel(name)
	t.spans[i].start = time.Since(t.epoch)
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	label := ""
	if n := len(t.open); n > 0 {
		label = t.spans[t.open[n-1]].name
	}
	setLabel(label)
}

func setLabel(name string) {
	ctx := context.Background()
	if name != "" {
		ctx = pprof.WithLabels(ctx, pprof.Labels("span", name))
	}
	pprof.SetGoroutineLabels(ctx)
}

// layerTimes sums span self time per name — a span's duration minus
// the time its child spans cover — separately for op spans and set-up
// spans, and counts the op spans of each name.
func (t *tracer) layerTimes() (ops, setup map[string]time.Duration, calls map[string]int) {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	ops, setup, calls = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for i, s := range t.spans {
		if s.op < 0 {
			setup[s.name] += self[i]
			continue
		}
		ops[s.name] += self[i]
		calls[s.name]++
	}
	return ops, setup, calls
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format, which https://ui.perfetto.dev opens.
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int32 `json:"args"`
}

// write saves every span as a Chrome trace-event JSON file.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int32{"op": s.op, "parent": s.parent},
		}
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
