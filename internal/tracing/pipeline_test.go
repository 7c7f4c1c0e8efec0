package tracing

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/pipeline"
)

// pipelineTrace builds a deterministic capture of a 2-line pipeline:
// line 0 runs tokens through pipes p0/p1 on worker 0, line 1 on worker 1,
// with one unrelated span that must be filtered out.
func pipelineTrace() executor.Trace {
	ms := func(d int64) time.Duration { return time.Duration(d) * time.Millisecond }
	cell := func(line int32, name string, id uint64) executor.TaskMeta {
		return executor.TaskMeta{Flow: "pipe2", Name: name, ID: id, Idx: line, Gen: 1}
	}
	other := executor.TaskMeta{Flow: "elsewhere", Name: "noise", ID: 99, Idx: 7, Gen: 1}
	return executor.Trace{
		Workers: 2,
		Events: []executor.TraceEvent{
			{Ts: ms(0), Worker: 0, Kind: executor.EvTaskStart, Meta: cell(0, "p0", 1)},
			{Ts: ms(2), Worker: 0, Kind: executor.EvTaskEnd, Meta: cell(0, "p0", 1)},
			{Ts: ms(2), Worker: 1, Kind: executor.EvTaskStart, Meta: cell(1, "p0", 3)},
			{Ts: ms(3), Worker: 0, Kind: executor.EvTaskStart, Meta: other},
			{Ts: ms(4), Worker: 0, Kind: executor.EvTaskEnd, Meta: other},
			{Ts: ms(4), Worker: 1, Kind: executor.EvTaskEnd, Meta: cell(1, "p0", 3)},
			{Ts: ms(4), Worker: 0, Kind: executor.EvTaskStart, Meta: cell(0, "p1", 2)},
			{Ts: ms(8), Worker: 0, Kind: executor.EvTaskEnd, Meta: cell(0, "p1", 2)},
		},
	}
}

func TestWriteLineTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLineTrace(&buf, pipelineTrace(), "pipe2"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spansPerLine := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "noise" {
			t.Fatal("foreign-flow span leaked into the line trace")
		}
		spansPerLine[ev.Tid]++
	}
	if spansPerLine[0] != 2 || spansPerLine[1] != 1 {
		t.Fatalf("spans per line = %v, want line0:2 line1:1", spansPerLine)
	}
	if doc.Metadata["lines"] != float64(2) {
		t.Fatalf("metadata lines = %v, want 2", doc.Metadata["lines"])
	}
	occ, ok := doc.Metadata["occupancy"].(map[string]any)
	if !ok {
		t.Fatalf("metadata occupancy missing: %v", doc.Metadata)
	}
	// Window is [0ms, 8ms]. Line 0 is busy 2+4=6ms (0.75); line 1 2ms (0.25).
	if got := occ["line0"].(float64); got < 0.74 || got > 0.76 {
		t.Fatalf("line0 occupancy = %v, want 0.75", got)
	}
	if got := occ["line1"].(float64); got < 0.24 || got > 0.26 {
		t.Fatalf("line1 occupancy = %v, want 0.25", got)
	}
}

func TestLineOccupancy(t *testing.T) {
	occ := LineOccupancy(pipelineTrace(), "pipe2")
	if len(occ) != 2 {
		t.Fatalf("LineOccupancy returned %d lines, want 2", len(occ))
	}
	if occ[0] < 0.74 || occ[0] > 0.76 || occ[1] < 0.24 || occ[1] > 0.26 {
		t.Fatalf("occupancy = %v, want [0.75 0.25]", occ)
	}
	if LineOccupancy(pipelineTrace(), "nosuchflow") != nil {
		t.Fatal("unknown flow should return nil")
	}
}

// End to end: a traced executor running a real pipeline produces a line
// trace whose span count matches tokens × pipes and whose every line has
// nonzero occupancy.
func TestLineTraceEndToEnd(t *testing.T) {
	e := executor.New(2, executor.WithFlightRecorder(1<<14))
	defer e.Shutdown()
	const n, lines = 32, 4
	p := pipeline.New(e, lines,
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() >= n {
				pf.Stop()
			}
		}},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: func(*pipeline.Pipeflow) {
			for i := 0; i < 5000; i++ {
				_ = i * i
			}
		}},
	).Named("stream")
	if !e.StartTrace() {
		t.Fatal("StartTrace refused")
	}
	if got := p.Run(); got != n {
		t.Fatalf("Run() = %d, want %d", got, n)
	}
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace: no capture")
	}
	occ := LineOccupancy(tr, "stream")
	if len(occ) != lines {
		t.Fatalf("observed %d lines, want %d", len(occ), lines)
	}
	for l, f := range occ {
		if f <= 0 {
			t.Fatalf("line %d occupancy = %v, want > 0", l, f)
		}
	}
	var buf bytes.Buffer
	if err := WriteLineTrace(&buf, tr, "stream"); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("line trace is not valid JSON")
	}
}
