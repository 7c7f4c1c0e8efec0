package executor

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// describedTask is a Runnable that carries identity, like graph nodes do.
type describedTask struct {
	rbox Runnable
	meta TaskMeta
	fn   func()
}

func newDescribedTask(meta TaskMeta, fn func()) *describedTask {
	d := &describedTask{meta: meta, fn: fn}
	d.rbox = d
	return d
}

func (d *describedTask) Run(Context)        { d.fn() }
func (d *describedTask) Describe() TaskMeta { return d.meta }

func TestTraceDisabledWithoutOption(t *testing.T) {
	e := New(2)
	defer e.Shutdown()
	if e.StartTrace() {
		t.Fatal("StartTrace succeeded without WithFlightRecorder")
	}
	if e.TraceActive() {
		t.Fatal("TraceActive without WithFlightRecorder")
	}
	if _, ok := e.StopTrace(); ok {
		t.Fatal("StopTrace succeeded without WithFlightRecorder")
	}
	// Instrumentation points must be inert.
	var n atomic.Int64
	e.SubmitFunc(func(Context) { n.Add(1) })
	waitCounter(t, &n, 1)
}

func TestTraceCaptureLifecycle(t *testing.T) {
	e := New(2, WithFlightRecorder(1024))
	defer e.Shutdown()
	if e.TraceActive() {
		t.Fatal("capture active before StartTrace")
	}
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	if e.StartTrace() {
		t.Fatal("second StartTrace succeeded while active")
	}
	if !e.TraceActive() {
		t.Fatal("capture not active after StartTrace")
	}

	var n atomic.Int64
	meta := TaskMeta{Flow: "flow", Name: "alpha", ID: 7, Idx: 3, Gen: 1}
	d := newDescribedTask(meta, func() { n.Add(1) })
	e.Submit(&d.rbox)
	for i := 0; i < 9; i++ {
		e.SubmitFunc(func(Context) { n.Add(1) })
	}
	waitCounter(t, &n, 10)

	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if e.TraceActive() {
		t.Fatal("capture still active after StopTrace")
	}
	if _, ok := e.StopTrace(); ok {
		t.Fatal("second StopTrace re-read a closed window")
	}
	if tr.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", tr.Workers)
	}
	if tr.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped)
	}

	var starts, ends, pushes int
	var sawMeta bool
	for i, ev := range tr.Events {
		if i > 0 && ev.Ts < tr.Events[i-1].Ts {
			t.Fatal("events not time-ordered")
		}
		switch ev.Kind {
		case EvTaskStart:
			starts++
			if ev.Meta == meta {
				sawMeta = true
			}
		case EvTaskEnd:
			ends++
		case EvInjectPush:
			pushes++
			if ev.Worker != ExternalWorker {
				t.Fatalf("EvInjectPush attributed to worker %d", ev.Worker)
			}
		}
	}
	if starts != 10 || ends != 10 {
		t.Fatalf("starts/ends = %d/%d, want 10/10", starts, ends)
	}
	if pushes != 10 {
		t.Fatalf("inject pushes = %d, want 10", pushes)
	}
	if !sawMeta {
		t.Fatal("described task's TaskMeta not carried into its span events")
	}
}

func TestTraceSchedulerEvents(t *testing.T) {
	// Submitting from outside onto an idle pool structurally guarantees
	// inject-push, precise-wake, inject-drain and unpark events.
	e := New(2, WithFlightRecorder(4096))
	defer e.Shutdown()

	// Let the workers park first.
	time.Sleep(20 * time.Millisecond)
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		e.SubmitFunc(func(Context) { n.Add(1) })
	}
	waitCounter(t, &n, 20)
	tr, _ := e.StopTrace()

	kinds := map[EventKind]int{}
	for _, ev := range tr.Events {
		kinds[ev.Kind]++
	}
	for _, want := range []EventKind{EvInjectPush, EvInjectDrain, EvWakePrecise, EvUnpark} {
		if kinds[want] == 0 {
			t.Errorf("no %v events recorded (kinds: %v)", want, kinds)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("EventKind %d has no name", k)
		}
		if strings.ToLower(s) != s {
			t.Fatalf("EventKind name %q not lowercase", s)
		}
	}
	if numEventKinds.String() != "unknown" {
		t.Fatal("out-of-range EventKind should stringify as unknown")
	}
}
