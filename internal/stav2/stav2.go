// Package stav2 is the OpenTimer-v2-style timing driver of the
// Cpp-Taskflow paper (Section IV-B): timing updates run as a task
// dependency graph over the affected cone — one task per gate
// propagation, wired by the cone-internal dependencies — on the shared
// work-stealing executor. Computations flow naturally and asynchronously
// with the timing graph instead of marching through level barriers, which
// is where v2's speedup over v1 comes from.
//
// The graph is resident: NewShared builds two intrusive task objects per
// gate, one forward and one backward, once. Each Run activates only the
// update's cone — it stamps cone membership with an epoch, arms every
// member's join counter with its number of in-cone predecessors, and
// submits the cone's sources — and finished tasks release their in-cone
// successors directly through the executor. An update therefore allocates
// nothing, builds nothing and cycle-checks nothing; this is the reusable
// graph model of the Taskflow successor paper (arXiv:2004.10908).
//
// Taskflow(u) builds the same update as an explicit core.Taskflow. It is
// the explain path — the Figure 8 DOT dump, reports and traces that want
// a dispatchable graph — and is never used by Run.
package stav2

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sta"
)

// flowName names a timing update in traces and dumps.
const flowName = "timing_update"

// taskID assigns trace identities to gate tasks across all analyzers.
var taskID atomic.Uint64

// gateTask is the resident task object of one gate's forward or backward
// propagation. It implements executor.Runnable and carries its own
// intrusive task slot, so re-running it allocates nothing. A task has at
// most one execution in flight: its join counter gates readiness.
type gateTask struct {
	p    *pass
	self executor.Runnable // == gateTask; &self is the scheduling currency
	v    int32
	id   uint64
}

// Run implements executor.Runnable.
func (t *gateTask) Run(ctx executor.Context) { t.p.run(ctx, t) }

// Describe implements executor.Described, so traces of Run name every
// gate. Backward tasks carry the gate's name primed, indexed
// after the forward ones.
func (t *gateTask) Describe() executor.TaskMeta {
	m := executor.TaskMeta{Flow: flowName, Name: t.name(), ID: t.id, Idx: t.v, Gen: t.p.a.gen.Load()}
	if t.p.bwd {
		m.Idx += int32(len(t.p.tasks))
	}
	return m
}

func (t *gateTask) name() string {
	name := t.p.a.T.Ckt.Gates[t.v].Name
	if t.p.bwd {
		name += "'"
	}
	return name
}

// pass is one direction of the resident graph: every gate's forward tasks,
// which depend on their fanins, or its backward tasks, which depend on
// their fanouts. The per-run state lives in arrays indexed by gate,
// beside the tasks.
type pass struct {
	a     *Analyzer
	bwd   bool
	tasks []gateTask
	join  []atomic.Int32 // in-cone predecessors yet to finish this run
	succ  []int32        // in-cone successors this run; 0 marks a sink

	// in[v] == epoch marks v as a member of the current update's cone;
	// a new epoch empties the cone without touching the array.
	in    []uint32
	epoch uint32

	// src holds the cone's sources and sinks counts its sinks still to
	// finish.
	src   []*executor.Runnable
	sinks atomic.Int32
}

func newPass(a *Analyzer, n int, bwd bool) *pass {
	p := &pass{
		a: a, bwd: bwd,
		tasks: make([]gateTask, n),
		join:  make([]atomic.Int32, n),
		succ:  make([]int32, n),
		in:    make([]uint32, n),
	}
	for v := range p.tasks {
		t := &p.tasks[v]
		t.p, t.v, t.id = p, int32(v), taskID.Add(1)
		t.self = t
	}
	return p
}

// edges returns gate v's predecessors and successors in this pass.
func (p *pass) edges(v int32) (preds, succs []int32) {
	g := p.a.T.Ckt.Gates[v]
	if p.bwd {
		return g.Fanout, g.Fanin
	}
	return g.Fanin, g.Fanout
}

// stamp opens a new epoch and marks the cone's members with it.
func (p *pass) stamp(cone []int) {
	p.epoch++
	if p.epoch == 0 {
		// Wrapped: stale stamps could alias the new epoch.
		clear(p.in)
		p.epoch = 1
	}
	for _, v := range cone {
		p.in[v] = p.epoch
	}
}

// member reports whether v belongs to the cone stamped last.
func (p *pass) member(v int32) bool { return p.in[v] == p.epoch }

// arm stamps cone and prepares it to run: each member's join counter is
// set to its number of in-cone predecessors and succ to its in-cone
// successors. It collects the cone's sources and counts its sinks.
func (p *pass) arm(cone []int) {
	p.stamp(cone)
	p.src = p.src[:0]
	var sinks int32
	for _, v := range cone {
		preds, succs := p.edges(int32(v))
		join := p.members(preds)
		p.join[v].Store(join)
		if join == 0 {
			p.src = append(p.src, &p.tasks[v].self)
		}
		if p.succ[v] = p.members(succs); p.succ[v] == 0 {
			sinks++
		}
	}
	p.sinks.Store(sinks)
}

// members counts the gates of vs in the current cone.
func (p *pass) members(vs []int32) int32 {
	var k int32
	for _, w := range vs {
		if p.member(w) {
			k++
		}
	}
	return k
}

// run executes one gate task: relax the gate, then release its in-cone
// successors — the first ready one into the worker's cache slot, the rest
// queued with a single Wake, as core's finishNode does. A sink counts
// down its pass instead.
//
// The release loop stops at the last in-cone successor: once that one is
// released, the run may complete and the next Run re-stamp the cones, so
// the task must not read the membership stamps again.
func (p *pass) run(ctx executor.Context, t *gateTask) {
	p.relax(t)
	left := p.succ[t.v]
	if left == 0 {
		p.a.sinkDone(ctx, p)
		return
	}
	_, succs := p.edges(t.v)
	cached, extra := false, 0
	for _, w := range succs {
		if !p.member(w) {
			continue
		}
		if p.join[w].Add(-1) == 0 {
			if !cached {
				ctx.SubmitCached(&p.tasks[w].self)
				cached = true
			} else {
				ctx.SubmitNoWake(&p.tasks[w].self)
				extra++
			}
		}
		if left--; left == 0 {
			break
		}
	}
	if extra > 0 {
		ctx.Wake(extra)
	}
}

// relax runs the gate's propagation, recording a panic as the run's error
// so the graph still drains.
func (p *pass) relax(t *gateTask) {
	defer func() {
		if r := recover(); r != nil {
			p.a.fail(fmt.Errorf("stav2: task %q panicked: %v", t.name(), r))
		}
	}()
	if p.bwd {
		p.a.T.RelaxBackward(int(t.v))
	} else {
		p.a.T.RelaxForward(int(t.v))
	}
}

// Analyzer drives incremental timing updates over a resident per-gate
// task graph. Run and Taskflow must not be called concurrently on one
// Analyzer; separate analyzers may share an executor freely.
type Analyzer struct {
	T    *sta.Timing
	exec *executor.Executor

	// fwd and bwd are the forward and backward halves of the graph. The
	// last forward sink is the barrier that submits the backward sources;
	// the last backward sink ends the run by signalling done.
	fwd, bwd *pass
	done     chan struct{}
	gen      atomic.Uint64 // 1-based run count, the traced Gen

	errMu sync.Mutex
	errs  []error

	// tasks is Taskflow's gate -> task scratch, allocated on first use.
	tasks []core.Task
}

// New creates an analyzer with its own work-stealing executor of the given
// size.
func New(t *sta.Timing, workers int) *Analyzer {
	return NewShared(t, executor.New(workers))
}

// NewShared creates an analyzer on a shared executor (paper Section III-E:
// executors are shareable across modules) and builds its resident graph.
func NewShared(t *sta.Timing, e *executor.Executor) *Analyzer {
	n := t.Ckt.NumGates()
	a := &Analyzer{T: t, exec: e, done: make(chan struct{}, 1)}
	a.fwd, a.bwd = newPass(a, n, false), newPass(a, n, true)
	return a
}

// Close shuts down the executor. Do not call it when the executor is
// shared with other components that are still running.
func (a *Analyzer) Close() { a.exec.Shutdown() }

// NumWorkers returns the executor's worker count.
func (a *Analyzer) NumWorkers() int { return a.exec.NumWorkers() }

// Run applies one timing update on the resident graph: the forward cone
// in dependency order, a barrier, then the backward cone in reverse
// dependency order (paper Figure 8 shows one such graph). Fwd and Bwd may
// be any subsets of the circuit — closed cones or not, either one empty —
// but must not repeat a gate. A panicking propagation is returned as an
// error after the graph drains; a submission the executor rejects returns
// executor.ErrShutdown.
func (a *Analyzer) Run(u sta.Update) error {
	if u.NumTasks() == 0 {
		return nil
	}
	a.gen.Add(1)
	a.fwd.arm(u.Fwd)
	a.bwd.arm(u.Bwd)
	src := a.fwd.src
	if len(u.Fwd) == 0 {
		src = a.bwd.src
	}
	if err := a.exec.SubmitBatch(src); err != nil {
		return err
	}
	<-a.done
	a.errMu.Lock()
	defer a.errMu.Unlock()
	err := errors.Join(a.errs...)
	a.errs = a.errs[:0]
	return err
}

// fail records a task failure of the current run.
func (a *Analyzer) fail(err error) {
	a.errMu.Lock()
	a.errs = append(a.errs, err)
	a.errMu.Unlock()
}

// sinkDone counts down a finished sink of p. The last forward sink is the
// forward/backward barrier: it submits the backward sources, or ends a
// run without a backward cone. The last backward sink ends the run.
func (a *Analyzer) sinkDone(ctx executor.Context, p *pass) {
	if p.sinks.Add(-1) != 0 {
		return
	}
	if p == a.fwd && len(a.bwd.src) > 0 {
		ctx.SubmitBatch(a.bwd.src)
		return
	}
	a.done <- struct{}{}
}

// Taskflow builds the update's task dependency graph as a core.Taskflow
// without dispatching it: a forward subgraph, a barrier and a backward
// subgraph, each task named after its gate. It is the explain path — the
// Figure 8 dump, reports and traces that want an explicit graph; Run
// does not use it.
func (a *Analyzer) Taskflow(u sta.Update) *core.Taskflow {
	t := a.T
	g := t.Ckt.Gates
	if a.tasks == nil {
		a.tasks = make([]core.Task, len(g))
	}
	a.fwd.stamp(u.Fwd)
	a.bwd.stamp(u.Bwd)
	tf := core.NewShared(a.exec).SetName(flowName)

	// Forward subgraph: task per cone node, cone-internal fanin edges.
	for _, v := range u.Fwd {
		v := v
		a.tasks[v] = tf.Emplace1(func() { t.RelaxForward(v) }).Name(g[v].Name)
	}
	for _, v := range u.Fwd {
		for _, w := range g[v].Fanout {
			if a.fwd.member(w) {
				a.tasks[v].Precede(a.tasks[w])
			}
		}
	}
	// Barrier: the backward pass consumes delays produced anywhere in the
	// forward cone. Wiring the cone's sinks suffices — every forward task
	// reaches a sink, so the barrier transitively waits for all of them.
	barrier := tf.Placeholder().Name("fwd_bwd_barrier")
	for _, v := range u.Fwd {
		if a.fwd.members(g[v].Fanout) == 0 {
			a.tasks[v].Precede(barrier)
		}
	}

	// Backward subgraph: reversed cone edges; its sources hang off the
	// barrier and reach every backward task transitively.
	for _, v := range u.Bwd {
		v := v
		a.tasks[v] = tf.Emplace1(func() { t.RelaxBackward(v) }).Name(g[v].Name + "'")
	}
	for _, v := range u.Bwd {
		hasConeFanout := false
		for _, w := range g[v].Fanout {
			if a.bwd.member(w) {
				a.tasks[w].Precede(a.tasks[v])
				hasConeFanout = true
			}
		}
		if !hasConeFanout {
			barrier.Precede(a.tasks[v])
		}
	}
	return tf
}
