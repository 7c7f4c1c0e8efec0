package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// span is one timed call into a layer. parent is the index of the
// enclosing span, -1 for a root; op is the id of the operation it served.
type span struct {
	name       string
	start, end int64 // ns since the tracer's base
	parent     int
	op         int
}

// tracer keeps the traced run's spans in memory until the run ends.
type tracer struct {
	base  time.Time
	spans []span
	cur   int // the open root span new children attach to, -1 if none
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<14), cur: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// startOp opens a root span for operation id; spans started until it is
// stopped become its children. All span calls on a nil tracer do nothing.
func (t *tracer) startOp(name string, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: -1, op: id})
	t.cur = len(t.spans) - 1
	return t.cur
}

// start opens a child span of the current op.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	p, op := t.cur, -1
	if p >= 0 {
		op = t.spans[p].op
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: p, op: op})
	return len(t.spans) - 1
}

func (t *tracer) stop(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = t.now()
	if i == t.cur {
		t.cur = -1
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that the union of its children covers.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(s.start, s.end, kids[i])
	}
	return self
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is accounted for
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerTime is one span name's self time summed over all its spans.
type layerTime struct {
	name  string
	count int
	self  time.Duration
	wall  time.Duration
}

// layerTimes sums self and wall time per span name, in order of first
// appearance.
func layerTimes(spans []span) []layerTime {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerTime
	for i, s := range spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, layerTime{name: s.name})
		}
		out[j].count++
		out[j].self += time.Duration(self[i])
		out[j].wall += time.Duration(s.end - s.start)
	}
	return out
}

// selfMsPerOp is the self time of the spans named name, in ms per op.
func selfMsPerOp(lt []layerTime, name string, ops int) float64 {
	for _, l := range lt {
		if l.name == name {
			return float64(l.self) / 1e6 / float64(ops)
		}
	}
	return 0
}

// durations returns the wall time in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.name == name {
			d = append(d, float64(s.end-s.start)/1e9)
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in microseconds), which Perfetto and chrome://tracing open.
func writeChrome(w io.Writer, spans []span, meta map[string]string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"op": s.op, "parent": parent},
		}
	}
	err := json.NewEncoder(w).Encode(struct {
		TraceEvents     []event           `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{evs, "ns", meta})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
