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
// the per-execution cost is one nil check and the readyAtNs field is
// never written, keeping the 0-alloc gates and the simulation paths
// byte-identical to before.
//
// Timing points: readyAtNs is stamped wherever an execution is queued
// (run/dispatch sources, dependency release in notifySucc, condition
// re-schedule, subflow spawn, retry resubmission), the body start/end are
// read in runNode, and one RecordLatency call per resolved execution
// feeds all three series (queue-wait, execution, end-to-end). A retry
// attempt whose failure arms another backoff is not recorded — the
// execution is still outstanding — and its resubmission restamps
// readyAtNs, so the eventual record charges the last wait, not the
// backoff sleeps. Every stamp is executor.Nanotime, the time base of the
// flight recorder's events too.

import "gotaskflow/internal/executor"

// noteLatency records one resolved execution of n whose body started at
// startNs. Callers have checked t.lat != nil.
func (t *topology) noteLatency(ctx executor.Context, n *node, startNs int64) {
	t.lat.RecordLatency(ctx.WorkerID(), startNs-n.readyAtNs, executor.Nanotime()-startNs)
}
