package executor

// Event recording: the one event stream behind every timeline view. Each
// worker writes into its own fixed-capacity wrapping ring (drop-OLDEST),
// plus one ring for events from outside the pool, so at any moment the
// rings hold the last ~capacity scheduler decisions per worker. Two
// readers share them:
//
//   - FlightSnapshot copies everything the rings still hold — the black
//     box the stall watchdog (watchdog.go) attaches to its report: "what
//     was the scheduler doing just before it stalled", with no
//     pre-arranged capture.
//
//   - StartTrace/StopTrace is a marked window over the same rings:
//     StartTrace records each ring's write count, StopTrace copies what
//     was written since. Recording never starts or stops; a window only
//     chooses which part of the stream to copy out.
//
// Cost model: every instrumentation point (worker.Trace/traceEvent,
// Executor.TraceExternal, the task spans in invoke) is one nil check on
// executors built without WithFlightRecorder. An armed recorder pays one
// mutexed slot write per event, with no allocation, and a worker's events
// take no clock read of their own: inside a chain of tasks they carry the
// worker's task-boundary stamp (worker.Stamp), shared with the latency
// histograms and run statistics, so a chain pays one read per task.
// Between chains (steals, parks) each event reads the clock. Because
// recording is continuous, worker.Tracing() reports true whenever the
// recorder is armed, which also makes internal/core emit its
// task/dependency events.
//
// Copy protocol: a wrapping ring REUSES slots, so a lock-free reader
// could observe a slot torn mid-overwrite. Each ring therefore carries its
// own mutex: the critical section is one slot copy and a counter bump,
// and readers hold only one ring's lock at a time while copying that
// ring. A writer contends only when a copy of its own ring is in flight.
// Accounting is exact: Dropped is precisely the number of events the wrap
// overwrote before they could be copied. A worker ring has one writer,
// its owner, whose stamps never go backwards, so the ring is in time
// order; the external ring's writers may interleave, and the merge sorts
// every copy by time. A stamp is read before its event is written, so an
// event just past a window's mark can predate the window's start;
// StopTrace then rebases the window to that event.

import (
	"sort"
	"sync"
	"time"
)

// epoch anchors Nanotime; time.Since reads the monotonic clock and
// allocates nothing.
var epoch = time.Now()

// Nanotime returns monotonic nanoseconds since a package-level epoch. It
// is the one time base of the executor's observability: ring events,
// latency-histogram samples and timed run stats all carry it, on the pool
// through the worker's task-boundary stamp (Context.Stamp).
func Nanotime() int64 { return int64(time.Since(epoch)) }

// flightRing is one worker's wrapping event buffer. len(buf) is a power
// of two; slot i lives at buf[i&mask]. n is the total number of events
// ever written (monotonic); mark is n at the open window's StartTrace.
// mu serializes slot writes against copies; it is effectively
// uncontended outside them.
type flightRing struct {
	mu   sync.Mutex
	buf  []TraceEvent
	mask int64
	n    int64
	mark int64
}

func (r *flightRing) write(ev TraceEvent) {
	r.mu.Lock()
	r.buf[r.n&r.mask] = ev
	r.n++
	r.mu.Unlock()
}

// flightState exists iff the executor was built WithFlightRecorder.
type flightState struct {
	// born is the Nanotime of construction, the base of snapshots.
	born int64
	// rings[i] belongs to worker i; rings[len-1] is the external ring
	// (external submissions, timers), serialized by its own ring mutex.
	rings []flightRing

	// win serializes StartTrace/StopTrace, so exactly one of racing
	// StartTrace calls opens the window and exactly one StopTrace closes
	// it. open and start (the window's Nanotime) are guarded by win; the
	// rings' marks by win and their own mutex.
	win   sync.Mutex
	open  bool
	start int64
}

func newFlightState(workers, capacity int) *flightState {
	f := &flightState{
		born:  Nanotime(),
		rings: make([]flightRing, workers+1),
	}
	for i := range f.rings {
		f.rings[i].buf = make([]TraceEvent, capacity)
		f.rings[i].mask = int64(capacity - 1)
	}
	return f
}

// record appends an event stamped now to worker's ring, or to the
// external ring when worker is not a pool worker.
func (f *flightState) record(worker int32, kind EventKind, meta TaskMeta, arg uint64) {
	f.put(worker, kind, meta, arg, Nanotime())
}

// put appends an event stamped ts; a worker stamps its own events.
func (f *flightState) put(worker int32, kind EventKind, meta TaskMeta, arg uint64, ts int64) {
	ev := TraceEvent{Ts: time.Duration(ts), Worker: worker, Kind: kind, Arg: arg, Meta: meta}
	if worker < 0 || int(worker) >= len(f.rings)-1 {
		ev.Worker, worker = ExternalWorker, int32(len(f.rings)-1)
	}
	f.rings[worker].write(ev)
}

// merge copies each ring's retained events from its window mark (window)
// or from its first event (snapshot) into one time-ordered Trace, with
// timestamps rebased to the window start (or its earliest event, if that
// is earlier) or the recorder's construction.
func (f *flightState) merge(workers int, window bool) Trace {
	tr := Trace{Workers: workers}
	for i := range f.rings {
		r := &f.rings[i]
		var from int64
		r.mu.Lock()
		if window {
			from = r.mark
		}
		lo := max(from, r.n-(r.mask+1))
		for j := lo; j < r.n; j++ {
			tr.Events = append(tr.Events, r.buf[j&r.mask])
		}
		r.mu.Unlock()
		tr.Dropped += uint64(lo - from)
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		return tr.Events[i].Ts < tr.Events[j].Ts
	})
	base := time.Duration(f.born)
	if window {
		base = time.Duration(f.start)
		if len(tr.Events) > 0 && tr.Events[0].Ts < base {
			base = tr.Events[0].Ts
		}
	}
	tr.Epoch = epoch.Add(base)
	for i := range tr.Events {
		tr.Events[i].Ts -= base
	}
	return tr
}

// defaultFlightCapacity is the per-ring event budget when
// WithFlightRecorder is given a non-positive capacity: 4K events per
// worker keeps the black box under ~350 KiB per worker while still
// holding seconds of steady-state scheduling.
const defaultFlightCapacity = 1 << 12

// WithFlightRecorder arms the continuously-recording event rings with the
// given per-worker capacity (rounded up to a power of two; <= 0 selects
// the default). The recorder runs for the executor's whole lifetime; each
// ring wraps, keeping the newest events. FlightSnapshot returns what the
// rings hold at any moment, and StartTrace/StopTrace copies out a window
// of them.
func WithFlightRecorder(capacity int) Option {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	// Round up to a power of two so the ring can index with a mask.
	c := 1
	for c < capacity {
		c <<= 1
	}
	return func(e *Executor) { e.flightCap = c }
}

// FlightEnabled reports whether the executor was built
// WithFlightRecorder.
func (e *Executor) FlightEnabled() bool { return e.flight != nil }

// FlightSnapshot copies the flight recorder's current contents into a
// merged, time-ordered Trace without stopping recording; Epoch is the
// recorder's construction. ok is false when the executor was built
// without WithFlightRecorder. Trace.Dropped counts exactly the events
// overwritten by ring wrap-around, so Dropped > 0 simply means the box
// has been running longer than its window — expected in steady state.
func (e *Executor) FlightSnapshot() (Trace, bool) {
	f := e.flight
	if f == nil {
		return Trace{}, false
	}
	return f.merge(len(e.workers), false), true
}

// StartTrace opens a trace window over the flight recorder: it marks
// each ring's write count and the start time. It returns false when the
// executor was built without WithFlightRecorder or a window is already
// open; of racing callers exactly one wins. Safe to call while workers
// run, and independent of FlightSnapshot.
func (e *Executor) StartTrace() bool {
	f := e.flight
	if f == nil {
		return false
	}
	f.win.Lock()
	defer f.win.Unlock()
	if f.open {
		return false
	}
	f.open = true
	f.start = Nanotime()
	for i := range f.rings {
		r := &f.rings[i]
		r.mu.Lock()
		r.mark = r.n
		r.mu.Unlock()
	}
	return true
}

// StopTrace closes the window and returns the merged, time-ordered events
// recorded since StartTrace, with Epoch the window start and every Ts an
// offset from it. Dropped counts the window's events that the rings
// overwrote before the copy; raise the WithFlightRecorder capacity if it
// is non-zero. ok is false when no window is open, so a second StopTrace
// is reported rather than re-reading a stale window.
func (e *Executor) StopTrace() (Trace, bool) {
	f := e.flight
	if f == nil {
		return Trace{}, false
	}
	f.win.Lock()
	defer f.win.Unlock()
	if !f.open {
		return Trace{}, false
	}
	f.open = false
	return f.merge(len(e.workers), true), true
}

// TraceActive reports whether a trace window is open.
func (e *Executor) TraceActive() bool {
	f := e.flight
	if f == nil {
		return false
	}
	f.win.Lock()
	defer f.win.Unlock()
	return f.open
}

// TraceExternal records an event from outside the worker pool (retry
// timers, cancellation, submission goroutines) into the external ring.
func (e *Executor) TraceExternal(kind EventKind, meta TaskMeta, arg uint64) {
	if f := e.flight; f != nil {
		f.record(ExternalWorker, kind, meta, arg)
	}
}

// Tracing implements Context: it reports whether the flight recorder is
// armed. This is the cheap guard tasks use before building a TaskMeta for
// Trace.
func (w *worker) Tracing() bool { return w.exec.flight != nil }

// Trace implements Context: record an event attributed to this worker.
// While the worker is busy it carries the current task boundary's stamp,
// so the bookkeeping after a body (releases, wakes) is stamped at the
// body's end and a released cached task starts at its release; once its
// deque runs dry (steals, parks) it reads the clock.
func (w *worker) Trace(kind EventKind, meta TaskMeta, arg uint64) {
	if f := w.exec.flight; f != nil {
		var ts int64
		if w.busy.Load() {
			ts = w.Stamp(false)
		} else {
			ts = Nanotime()
		}
		f.put(int32(w.id), kind, meta, arg, ts)
	}
}

// traceEvent is the executor-internal emission helper for events with no
// task identity (scheduler lifecycle).
func (w *worker) traceEvent(kind EventKind, arg uint64) {
	w.Trace(kind, TaskMeta{}, arg)
}
