package tracing

import (
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// traceSleepers runs n tasks that each sleep 100µs inside a trace window
// on a two-worker flight-recorded executor and returns the export.
func traceSleepers(t *testing.T, n int) traceDoc {
	t.Helper()
	e := executor.New(2, executor.WithFlightRecorder(1<<12))
	defer e.Shutdown()
	var count atomic.Int64
	doc := exportForRun(t, e, func() {
		tf := core.NewShared(e)
		for i := 0; i < n; i++ {
			tf.Emplace1(func() {
				count.Add(1)
				time.Sleep(100 * time.Microsecond)
			})
		}
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
	})
	if got := count.Load(); got != int64(n) {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	return doc
}

// TestProfilerRecordsAllTasks checks the trace window profiles every task:
// one span per task, on a valid worker thread, no shorter than the task's
// sleep.
func TestProfilerRecordsAllTasks(t *testing.T) {
	const n = 50
	doc := traceSleepers(t, n)
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		spans++
		if tid := ev["tid"].(float64); tid < 0 || tid >= 2 {
			t.Fatalf("span on thread %v, want a worker in [0, 2)", tid)
		}
		if dur := ev["dur"].(float64); dur < 50 {
			t.Fatalf("span of %vµs too short for a 100µs task", dur)
		}
	}
	if spans != n {
		t.Fatalf("recorded %d spans, want %d", spans, n)
	}
}

// TestChromeTraceFormat checks the export of a trace window holds exactly
// one well-formed "X" span per task: category "task", a positive duration
// and a timestamp.
func TestChromeTraceFormat(t *testing.T) {
	const n = 10
	doc := traceSleepers(t, n)
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			continue
		}
		spans++
		if ev["cat"] != "task" {
			t.Fatalf("span with category %v: %v", ev["cat"], ev)
		}
		if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
			t.Fatalf("span without a positive duration: %v", ev)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("span without a timestamp: %v", ev)
		}
	}
	if spans != n {
		t.Fatalf("trace has %d spans, want %d", spans, n)
	}
}
