package executor

// The scheduler seam: the minimal interface internal/core needs to
// dispatch topologies, factored out so the same task graphs can run on
// the real work-stealing pool or on internal/sim's deterministic
// single-threaded simulation executor.
//
// Two layers make up the seam:
//
//   - Context (executor.go) is the per-task scheduling surface a running
//     task sees. It was always an interface — the hot path (push, pop,
//     cache, wake) is already virtualized through it, so extracting
//     Scheduler adds nothing to the per-task cost.
//
//   - Scheduler (this file) is the topology-level surface: external
//     submission, worker count, shutdown, external trace events, and the
//     timer used by Task.Retry backoff. Core calls it once per dispatch /
//     run / retry / cancellation — never per task — so routing it through
//     an interface leaves the zero-alloc per-task path untouched.
//
// The timer half (AfterFunc) exists for two reasons. First, it is the
// virtual-clock seam: the simulation executor implements it with a
// virtual clock so retry backoffs fire instantly, in seed-controlled
// orders, instead of sleeping. Second, it closes a real lifetime bug in
// the wall-clock implementation: a time.AfterFunc armed by a retrying
// task used to outlive Shutdown and fire into a dead pool up to a full
// backoff later — the submission failed, but a topology whose retry was
// parked on a semaphore could hang, and the process carried an armed
// timer it believed quiesced. The executor now registers every armed
// timer and resolves them at Shutdown (see timers.go).

import "time"

// Timer is the handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the callback. It reports whether it won the race: false
	// means the callback already ran or is running (possibly fired by
	// Shutdown). After a true return the callback will never run.
	Stop() bool
}

// Scheduler is the minimal scheduling surface a task-graph dispatcher
// (internal/core) needs: everything it calls on an executor outside the
// per-task Context path. *Executor implements it with the work-stealing
// pool; internal/sim.SimExecutor implements it with a deterministic,
// seed-driven single-threaded simulation.
//
// None of these methods sit on the per-task hot path — tasks schedule
// their successors through Context — so an implementation behind this
// interface costs nothing per task executed.
type Scheduler interface {
	// Submit schedules a task from outside the worker pool. After
	// Shutdown it returns ErrShutdown.
	Submit(r *Runnable) error
	// SubmitBatch schedules several tasks at once, accepted whole or
	// rejected whole with ErrShutdown.
	SubmitBatch(rs []*Runnable) error
	// NumWorkers returns the (modeled) worker count.
	NumWorkers() int
	// Shutdown stops the scheduler and resolves every armed timer; see
	// AfterFunc. Idempotent.
	Shutdown()
	// Stopped reports whether Shutdown has begun.
	Stopped() bool
	// AfterFunc arranges for fn to run after d — on its own goroutine for
	// the real executor, at a virtual-clock instant for the simulation.
	// The contract is exactly-once with bounded lifetime: fn runs after
	// roughly d, or immediately when the scheduler shuts down first (so
	// work waiting on the timer resolves promptly instead of firing into
	// a dead pool), unless Stop cancels it before either. fn must
	// tolerate Submit returning ErrShutdown.
	AfterFunc(d time.Duration, fn func()) Timer
	// TraceExternal records a trace event from outside the worker pool.
	// No-op unless built WithFlightRecorder (the simulation ignores it).
	TraceExternal(kind EventKind, meta TaskMeta, arg uint64)
}

var _ Scheduler = (*Executor)(nil)
