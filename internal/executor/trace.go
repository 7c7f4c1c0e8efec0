package executor

// Event-level execution tracing: the vocabulary of the TFProf-style
// timeline (the Taskflow follow-up system's profiler view). Where
// metrics.go answers "how many" (aggregate counters), events answer
// "when, where and why": every task span and scheduler lifecycle event —
// steal, park/unpark, precise vs. probabilistic wake, injection traffic,
// retry arm/fire, cancellation skips, subflow spawn/join, dependency
// release — is timestamped into the flight recorder's per-worker rings
// (flight.go), and internal/tracing renders a snapshot or a
// StartTrace/StopTrace window as a Chrome trace-event JSON timeline
// (Perfetto).

import "time"

// EventKind enumerates the traced scheduler and task lifecycle events.
type EventKind uint8

const (
	// EvTaskStart/EvTaskEnd bracket one task-body execution on a worker;
	// the exporter pairs them into named "X" spans.
	EvTaskStart EventKind = iota
	EvTaskEnd
	// EvSteal records a successful steal by this worker (Arg = victim id).
	EvSteal
	// EvInjectDrain records a drain from an external injection shard
	// (Arg packs the shard index and task count; see InjectArg).
	EvInjectDrain
	// EvInjectPush records an external submission (Arg packs the shard
	// index and batch size; see InjectArg).
	EvInjectPush
	// EvPark/EvUnpark bracket a worker blocking on the eventcount notifier
	// (Arg = the worker's park-cycle epoch, so a timeline shows which park
	// a wake resolved).
	EvPark
	EvUnpark
	// EvWakePrecise records wakeups issued because new work arrived
	// (Arg = workers woken); EvWakeProb records the 1/wakeDen
	// load-balancing wake (Algorithm 1 lines 26-28).
	EvWakePrecise
	EvWakeProb
	// EvQueueGrow records a deque ring reallocation (Arg = new capacity).
	EvQueueGrow
	// EvDepRelease records the dependency edge that made a task ready:
	// Meta identifies the finishing (releasing) task, Arg is the released
	// task's unique ID. The exporter draws these as flow arrows.
	EvDepRelease
	// EvRetryArm records a failed execution scheduling a backoff retry
	// (Arg = attempt number); EvRetryFire records the timer resubmitting it.
	EvRetryArm
	EvRetryFire
	// EvSkip records a task body skipped by cooperative cancellation while
	// the dependency structure drained.
	EvSkip
	// EvCancel records the cancellation of a topology (fail-fast, Cancel,
	// or deadline).
	EvCancel
	// EvSubflowSpawn records a dynamic task spawning a child graph
	// (Arg = number of spawned tasks); EvSubflowJoin records a joined
	// subflow draining back into its parent.
	EvSubflowSpawn
	EvSubflowJoin
	// EvStealBatch records a batch steal moving more than one task in a
	// single sweep (Arg = number of tasks moved, ≥ 2): the first ran on the
	// thief, the rest landed on its deque. It follows the EvSteal event that
	// names the victim.
	EvStealBatch

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvTaskStart:    "task_start",
	EvTaskEnd:      "task_end",
	EvSteal:        "steal",
	EvInjectDrain:  "inject_drain",
	EvInjectPush:   "inject_push",
	EvPark:         "park",
	EvUnpark:       "unpark",
	EvWakePrecise:  "wake_precise",
	EvWakeProb:     "wake_prob",
	EvQueueGrow:    "queue_grow",
	EvDepRelease:   "dep_release",
	EvRetryArm:     "retry_arm",
	EvRetryFire:    "retry_fire",
	EvSkip:         "skip",
	EvCancel:       "cancel",
	EvSubflowSpawn: "subflow_spawn",
	EvSubflowJoin:  "subflow_join",
	EvStealBatch:   "steal_batch",
}

// String returns the stable lowercase name of the kind, used verbatim in
// the exported Chrome trace.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// injectArgShardShift packs the injection shard index into the top byte of
// an EvInjectPush/EvInjectDrain arg; the low 56 bits carry the task count.
const injectArgShardShift = 56

// InjectArg packs an injection shard index and task count into one trace
// event arg (shard in the top byte, count below). The exporters decode it
// with InjectArgShard/InjectArgCount so Perfetto shows which shard a push
// landed on and which shard woke a worker.
func InjectArg(shard int, count uint64) uint64 {
	return uint64(shard)<<injectArgShardShift | count&(uint64(1)<<injectArgShardShift-1)
}

// InjectArgShard extracts the shard index from a packed injection arg.
func InjectArgShard(arg uint64) int { return int(arg >> injectArgShardShift) }

// InjectArgCount extracts the task count from a packed injection arg.
func InjectArgCount(arg uint64) uint64 { return arg & (uint64(1)<<injectArgShardShift - 1) }

// TaskMeta identifies a task in trace events. Producing a TaskMeta
// copies two string headers and three integers — no allocation — so
// carrying identity through the hot path is free of garbage.
type TaskMeta struct {
	// Flow is the owning taskflow/topology display name ("" if unnamed).
	Flow string
	// Name is the task display name ("" if unnamed; renderers fall back
	// to a positional name derived from Idx, matching the DOT dump).
	Name string
	// ID is a unique task identity (stable across runs), used to match
	// dependency-release events to the spans they released.
	ID uint64
	// Idx is the task's emplacement index within its graph — the basis of
	// the positional fallback name.
	Idx int32
	// Gen is the run generation of a reusable topology (0 for one-shot
	// dispatches), distinguishing spans of successive Run calls.
	Gen uint64
}

// Described is implemented by Runnables that can identify themselves —
// graph nodes do. Anonymous tasks (NewTask, SubmitFunc) trace with a zero
// TaskMeta.
type Described interface {
	Describe() TaskMeta
}

// taskMetaOf extracts the task identity, if the task offers one.
func taskMetaOf(r *Runnable) TaskMeta {
	if d, ok := (*r).(Described); ok {
		return d.Describe()
	}
	return TaskMeta{}
}

// TraceEvent is one recorded event. Worker is the recording worker's index,
// or ExternalWorker for events from outside the pool (external submissions,
// retry timers, cancellation).
type TraceEvent struct {
	Ts     time.Duration // offset from Trace.Epoch
	Worker int32
	Kind   EventKind
	Arg    uint64
	Meta   TaskMeta
}

// ExternalWorker is the Worker value of events recorded outside the pool.
const ExternalWorker int32 = -1

// Trace is a copy of the flight recorder's rings (a snapshot or a
// StartTrace/StopTrace window): the merged, time-ordered event stream of
// every ring.
type Trace struct {
	// Epoch is the instant event timestamps are offsets from: the window
	// start, or the recorder's construction for a snapshot.
	Epoch time.Time
	// Events is the merged stream, sorted by Ts.
	Events []TraceEvent
	// Dropped counts events the rings overwrote (drop-oldest) before
	// they could be copied out.
	Dropped uint64
	// Workers is the executor's worker count at capture time.
	Workers int
}
