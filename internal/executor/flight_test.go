package executor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/testutil"
)

// TestFlightWrapAroundAccounting pins the drop-oldest snapshot protocol:
// a ring that recorded more events than its capacity yields the newest
// window, and everything older is counted as dropped — kept + dropped
// equals everything ever recorded.
func TestFlightWrapAroundAccounting(t *testing.T) {
	e := bareRecorder(1, 8) // no live worker to add its own events to ring 0
	const total = 20
	for i := 0; i < total; i++ {
		e.flight.record(0, EvTaskStart, TaskMeta{ID: uint64(i) + 1}, 0)
	}
	tr, ok := e.FlightSnapshot()
	if !ok {
		t.Fatal("FlightSnapshot not ok")
	}
	if uint64(len(tr.Events))+tr.Dropped != total {
		t.Fatalf("kept %d + dropped %d != recorded %d", len(tr.Events), tr.Dropped, total)
	}
	// The snapshot keeps the full capacity window, and it must be the
	// newest one.
	if len(tr.Events) != 8 {
		t.Fatalf("kept %d events from an 8-slot ring, want 8", len(tr.Events))
	}
	for i, ev := range tr.Events {
		if want := uint64(total - 8 + i + 1); ev.Meta.ID != want {
			t.Fatalf("event %d has ID %d, want %d (newest window)", i, ev.Meta.ID, want)
		}
	}
}

// TestFlightSnapshotSortedAndContinuous runs real work with no trace
// window: the armed recorder alone must hold task events, and the merged
// snapshot must be time-ordered.
func TestFlightSnapshotSortedAndContinuous(t *testing.T) {
	e := New(2, WithFlightRecorder(0))
	defer e.Shutdown()
	if !e.FlightEnabled() {
		t.Fatal("FlightEnabled = false")
	}
	drain(t, e, 200)
	tr, ok := e.FlightSnapshot()
	if !ok || len(tr.Events) == 0 {
		t.Fatalf("snapshot empty (ok=%v) after 200 tasks", ok)
	}
	starts := 0
	var last time.Duration = -1
	for i, ev := range tr.Events {
		if ev.Ts < last {
			t.Fatalf("event %d out of order: %v after %v", i, ev.Ts, last)
		}
		last = ev.Ts
		if ev.Kind == EvTaskStart {
			starts++
		}
	}
	if starts == 0 {
		t.Fatal("no task-start events in the flight window")
	}
	// Snapshot does not stop recording: more work keeps landing.
	drain(t, e, 50)
	tr2, _ := e.FlightSnapshot()
	if uint64(len(tr2.Events))+tr2.Dropped <= uint64(len(tr.Events))+tr.Dropped {
		t.Fatal("recorder stopped accumulating after a snapshot")
	}
}

// TestFlightComposesWithTraceCapture proves a trace window and the black
// box read the same rings without disturbing each other: a snapshot taken
// while the window is open sees the events from before the window too,
// and the window is unaffected by the snapshot.
func TestFlightComposesWithTraceCapture(t *testing.T) {
	e := bareRecorder(1, 64)
	for i := 1; i <= 5; i++ {
		e.flight.record(ExternalWorker, EvInjectPush, TaskMeta{ID: uint64(i)}, 0)
	}
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	for i := 6; i <= 8; i++ {
		e.flight.record(ExternalWorker, EvInjectPush, TaskMeta{ID: uint64(i)}, 0)
	}
	fl, ok := e.FlightSnapshot()
	if !ok || len(fl.Events) != 8 || fl.Dropped != 0 {
		t.Fatalf("snapshot during a window: ok=%v, %d events, %d dropped; want 8, 0", ok, len(fl.Events), fl.Dropped)
	}
	if !e.TraceActive() {
		t.Fatal("snapshot closed the window")
	}
	for i := 9; i <= 10; i++ {
		e.flight.record(ExternalWorker, EvInjectPush, TaskMeta{ID: uint64(i)}, 0)
	}
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if got := eventIDs(tr); !equalIDs(got, 6, 10) {
		t.Fatalf("window holds IDs %v, want 6..10", got)
	}
	// After the window closes, the recorder keeps going.
	e.flight.record(ExternalWorker, EvInjectPush, TaskMeta{ID: 11}, 0)
	fl2, _ := e.FlightSnapshot()
	if got := eventIDs(fl2); !equalIDs(got, 1, 11) {
		t.Fatalf("snapshot after the window holds IDs %v, want 1..11", got)
	}
}

// bareRecorder returns an executor with a flight recorder and no running
// workers, so tests control every event the rings hold.
func bareRecorder(workers, capacity int) *Executor {
	return &Executor{flight: newFlightState(workers, capacity)}
}

func eventIDs(tr Trace) []uint64 {
	ids := make([]uint64, len(tr.Events))
	for i, ev := range tr.Events {
		ids[i] = ev.Meta.ID
	}
	return ids
}

// equalIDs reports whether ids is exactly lo, lo+1, ..., hi.
func equalIDs(ids []uint64, lo, hi uint64) bool {
	if uint64(len(ids)) != hi-lo+1 {
		return false
	}
	for i, id := range ids {
		if id != lo+uint64(i) {
			return false
		}
	}
	return true
}

// TestTraceWindowHoldsItsEvents pins the window contract: exactly the
// events recorded between StartTrace and StopTrace, on every ring, with
// timestamps rebased to the window start.
func TestTraceWindowHoldsItsEvents(t *testing.T) {
	e := bareRecorder(2, 64)
	for i := 1; i <= 4; i++ {
		e.flight.record(int32(i%2), EvTaskStart, TaskMeta{ID: uint64(i)}, 0)
	}
	time.Sleep(time.Millisecond) // un-rebased stamps would exceed the window's length
	before := time.Now()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	for i := 5; i <= 10; i++ {
		w := int32(i%3) - 1 // worker 0, worker 1 and the external ring
		e.flight.record(w, EvTaskStart, TaskMeta{ID: uint64(i)}, 0)
	}
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	length := time.Since(before)
	e.flight.record(0, EvTaskStart, TaskMeta{ID: 11}, 0)
	if got := eventIDs(tr); !equalIDs(got, 5, 10) {
		t.Fatalf("window holds IDs %v, want 5..10", got)
	}
	if tr.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped)
	}
	if tr.Epoch.Before(before) {
		t.Fatalf("window epoch %v precedes StartTrace", tr.Epoch)
	}
	for _, ev := range tr.Events {
		if ev.Ts < 0 || ev.Ts > length {
			t.Fatalf("event %d at %v, want an offset in [0, %v] from the window start", ev.Meta.ID, ev.Ts, length)
		}
	}
}

// TestTraceWindowWrapAccounting: a window that records more than a ring
// holds keeps the newest events, and kept + Dropped equals the events
// recorded inside the window — the overwritten events from before the
// window are not counted.
func TestTraceWindowWrapAccounting(t *testing.T) {
	e := bareRecorder(1, 8)
	for i := 0; i < 5; i++ {
		e.flight.record(0, EvTaskStart, TaskMeta{}, 0)
	}
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	const inWindow = 20
	for i := 1; i <= inWindow; i++ {
		e.flight.record(0, EvTaskStart, TaskMeta{ID: uint64(i)}, 0)
	}
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if uint64(len(tr.Events))+tr.Dropped != inWindow {
		t.Fatalf("kept %d + dropped %d != recorded in window %d", len(tr.Events), tr.Dropped, inWindow)
	}
	if got := eventIDs(tr); !equalIDs(got, inWindow-7, inWindow) {
		t.Fatalf("window holds IDs %v, want the newest 8", got)
	}
}

// TestStartTraceOneWinner races StartTrace from several goroutines on a
// fresh recorder: exactly one opens the window.
func TestStartTraceOneWinner(t *testing.T) {
	const trials, racers = 2000, 4
	for trial := 0; trial < trials; trial++ {
		e := bareRecorder(1, 8)
		var wins atomic.Int32
		var ready, done sync.WaitGroup
		ready.Add(racers)
		done.Add(racers)
		gate := make(chan struct{})
		for r := 0; r < racers; r++ {
			go func() {
				defer done.Done()
				ready.Done()
				<-gate
				if e.StartTrace() {
					wins.Add(1)
				}
			}()
		}
		ready.Wait()
		close(gate)
		done.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("trial %d: %d racing StartTrace calls won, want 1", trial, n)
		}
	}
}

// TestFlightSnapshotWhileRecording races snapshots against a live
// workload (run under -race): snapshots never block writers and always
// return a sorted, internally consistent window.
func TestFlightSnapshotWhileRecording(t *testing.T) {
	e := New(2, WithFlightRecorder(64))
	defer e.Shutdown()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			drain(t, e, 20)
		}
	}()
	for i := 0; i < 200; i++ {
		tr, ok := e.FlightSnapshot()
		if !ok {
			t.Error("snapshot not ok mid-run")
			break
		}
		var last time.Duration = -1
		for j, ev := range tr.Events {
			if ev.Ts < last {
				t.Errorf("snapshot %d: event %d out of order", i, j)
				break
			}
			last = ev.Ts
		}
	}
	close(stop)
	wg.Wait()
}

func TestFlightDisabledByDefault(t *testing.T) {
	e := New(1)
	defer e.Shutdown()
	if e.FlightEnabled() {
		t.Fatal("FlightEnabled without the option")
	}
	if _, ok := e.FlightSnapshot(); ok {
		t.Fatal("FlightSnapshot ok when disabled")
	}
}

// TestFlightRecordZeroAlloc gates the armed record path: one clock read,
// one slot write and a counter bump under the ring mutex, no allocation. Runs under the CI alloc-gate
// job.
func TestFlightRecordZeroAlloc(t *testing.T) {
	e := New(1, WithFlightRecorder(256))
	defer e.Shutdown()
	meta := TaskMeta{ID: 7, Name: "gate"}
	if allocs := testing.AllocsPerRun(100, func() {
		e.flight.record(0, EvTaskStart, meta, 0)
	}); allocs != 0 {
		t.Fatalf("flight record allocates %v per op, want 0", allocs)
	}
}

// TestSpanExcludesIdleTime: a worker's clock boundary never outlives its
// chain. After each chain the worker wakes its parked peer (wake
// probability 1), recording an event stamped with the boundary; the task
// it runs after idling must still start from a fresh stamp, not one from
// before the idle period.
func TestSpanExcludesIdleTime(t *testing.T) {
	e := New(2, WithFlightRecorder(1<<10), WithWakeProbability(1))
	defer e.Shutdown()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	const rounds = 8
	const idle = 20 * time.Millisecond
	for i := 0; i < rounds; i++ {
		done := make(chan struct{})
		if err := e.SubmitFunc(func(Context) { close(done) }); err != nil {
			t.Fatal(err)
		}
		<-done
		time.Sleep(idle)
	}
	testutil.Eventually(t, 10*time.Second, func() bool { return e.BusyWorkers() == 0 },
		"workers still busy after the last task")
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	open := map[int32]time.Duration{}
	spans := 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvTaskStart:
			open[ev.Worker] = ev.Ts
		case EvTaskEnd:
			if st, ok := open[ev.Worker]; ok {
				spans++
				if d := ev.Ts - st; d >= idle {
					t.Fatalf("empty task span on worker %d lasted %v, spanning the idle period", ev.Worker, d)
				}
			}
		}
	}
	if spans != rounds {
		t.Fatalf("window holds %d task spans, want %d", spans, rounds)
	}
}

// TestTraceWindowRebasesEarlyStamp: a worker reads its boundary stamp
// before writing the event, so an event just past a window's mark can be
// stamped before the window's start. The window then starts at that
// event: nothing is clamped or dropped, and offsets stay exact.
func TestTraceWindowRebasesEarlyStamp(t *testing.T) {
	e := bareRecorder(1, 16)
	early := Nanotime()
	time.Sleep(time.Millisecond)
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	e.flight.put(0, EvTaskStart, TaskMeta{ID: 1}, 0, early)
	e.flight.record(0, EvTaskEnd, TaskMeta{ID: 1}, 0)
	tr, ok := e.StopTrace()
	if !ok {
		t.Fatal("StopTrace failed")
	}
	if len(tr.Events) != 2 || tr.Dropped != 0 {
		t.Fatalf("window holds %d events (dropped %d), want both", len(tr.Events), tr.Dropped)
	}
	if tr.Events[0].Ts != 0 {
		t.Fatalf("early event at offset %v, want the window rebased to it (0)", tr.Events[0].Ts)
	}
	if !tr.Epoch.Equal(epoch.Add(time.Duration(early))) {
		t.Fatalf("window epoch %v, want the early event's instant %v", tr.Epoch, epoch.Add(time.Duration(early)))
	}
	if tr.Events[1].Ts < time.Millisecond {
		t.Fatalf("end event at offset %v, want at least the 1ms slept after the early stamp", tr.Events[1].Ts)
	}
}
