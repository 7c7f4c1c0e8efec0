package core

// Latency capture for the executor's per-flow histograms (see
// internal/executor/histogram.go). The executor owns the histograms; this
// file owns the timestamps, because only the node lifecycle knows when an
// execution became ready (queued) and when its body ran.
//
// The seam is cold by construction: prepareRun/dispatch type-assert the
// scheduler to executor.LatencyProvider once per topology and cache the
// returned sink on the topology. When the sink is nil — the executor was
// built without WithLatencyHistograms, or the scheduler is internal/sim —
// the per-execution cost is one flag check and the readyAtNs field is
// never written, keeping the 0-alloc gates and the simulation paths
// byte-identical to before.
//
// Timing points: every stamp is executor.Nanotime, and on the pool it is
// the executing worker's task-boundary stamp (executor.Context.Stamp),
// shared with the flight recorder's spans and timed run statistics.
// readyAtNs is stamped wherever an execution is queued: run/dispatch
// sources and retry resubmission, off the pool, read the clock;
// dependency and condition releases and subflow spawn take the releasing
// task's body-end stamp, so a successor run from the worker's cache slot
// waits exactly zero. runNode takes the body start and end boundaries,
// and one RecordLatency call per resolved execution feeds all three
// series (queue-wait, execution, end-to-end). A retry attempt whose
// failure arms another backoff is not recorded — the execution is still
// outstanding — and its resubmission restamps readyAtNs, so the eventual
// record charges the last wait, not the backoff sleeps.

import "gotaskflow/internal/executor"

// observe caches, once per topology, the latency sink of flow f and
// whether execution bodies are clocked at all: some consumer — latency
// histograms, timed run stats, the executor's event ring — reads their
// boundary stamps. The plain path takes no clock read.
func (t *topology) observe(f executor.Flow) {
	if lp, ok := t.exec.(executor.LatencyProvider); ok {
		t.lat = lp.LatencySink(f)
	}
	rec, ok := t.exec.(interface{ FlightEnabled() bool })
	t.timed = t.lat != nil || t.stats != nil && t.stats.timing || ok && rec.FlightEnabled()
}

// bodyDone closes n's body begun at start, if clocked (start is 0 when
// t.timed is off). It is split from closeBody so the unclocked check
// inlines into runNode.
func (t *topology) bodyDone(ctx executor.Context, n *node, start int64, resolved bool) {
	if start != 0 {
		t.closeBody(ctx, n, start, resolved)
	}
}

// closeBody stamps the body's end boundary: timed run stats are charged
// end−start (the span the flight recorder shows for the task), and a
// resolved execution records its latency.
func (t *topology) closeBody(ctx executor.Context, n *node, start int64, resolved bool) {
	end := ctx.Stamp(true)
	if st := t.stats; st != nil && st.timing {
		st.busyNs.Add(end - start)
		n.execDurNs.Add(end - start)
	}
	if t.lat != nil && resolved {
		t.lat.RecordLatency(ctx.WorkerID(), start-n.readyAtNs, end-start)
	}
}
