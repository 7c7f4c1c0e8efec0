// Scheduler hot-path benchmarks: steady-state re-execution of fixed
// graph shapes via Taskflow.Run, isolating the per-task scheduling cost
// (intrusive task refs, batch successor submission, ring injection) from
// graph construction. Run with -benchmem: the linear chain is the
// zero-allocation regression gate.
package gotaskflow_test

import (
	"sync/atomic"
	"testing"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
)

// BenchmarkSchedLinearChain re-runs a 256-node chain: pure dependency
// hand-off, one successor per task, all through the speculative cache
// slot. Steady state must report 0 allocs/op.
func BenchmarkSchedLinearChain(b *testing.B) {
	tf := core.New(workers())
	defer tf.Close()
	benchChain(b, tf)
}

// benchChain builds a 256-node chain on tf and re-runs it b.N times after
// one untimed warm-up run. Every rung of the observability ladder below
// runs it, so the ns/op deltas against BenchmarkSchedLinearChain are the
// per-layer costs, and each rung must report 0 allocs/op with -benchmem.
func benchChain(b *testing.B, tf *core.Taskflow) {
	var n int64
	prev := tf.Emplace1(func() { n++ })
	for i := 1; i < 256; i++ {
		next := tf.Emplace1(func() { n++ })
		prev.Precede(next)
		prev = next
	}
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkSchedLinearChainCountersOn arms the executor's scheduler
// counters (WithMetrics) alone: owner-written padded atomics, no clock.
func BenchmarkSchedLinearChainCountersOn(b *testing.B) {
	e := executor.New(workers(), executor.WithMetrics())
	defer e.Shutdown()
	benchChain(b, core.NewShared(e))
	if snap, ok := e.MetricsSnapshot(); !ok || snap.Total().Executed == 0 {
		b.Fatal("metrics were not collected during the benchmark")
	}
}

// BenchmarkSchedLinearChainRunStatsOn collects timed run statistics
// (CollectRunStats(true)) alone: per-run counters plus each body's span
// from the worker's task-boundary clock.
func BenchmarkSchedLinearChainRunStatsOn(b *testing.B) {
	e := executor.New(workers())
	defer e.Shutdown()
	tf := core.NewShared(e).CollectRunStats(true)
	benchChain(b, tf)
	if rs, ok := tf.LastRunStats(); !ok || rs.Busy == 0 {
		b.Fatal("run stats recorded no busy time during the benchmark")
	}
}

// BenchmarkSchedLinearChainHistogramsOn arms per-flow latency histograms
// (WithLatencyHistograms) alone: each execution records queue-wait,
// execution and end-to-end — three shard-local atomic adds per dimension —
// from the task-boundary stamps.
func BenchmarkSchedLinearChainHistogramsOn(b *testing.B) {
	e := executor.New(workers(), executor.WithLatencyHistograms())
	defer e.Shutdown()
	benchChain(b, core.NewShared(e))
	flows, ok := e.LatencyStats()
	if !ok || len(flows) == 0 || flows[0].EndToEnd.Count == 0 {
		b.Fatal("latency histograms recorded nothing during the benchmark")
	}
}

// BenchmarkSchedLinearChainFlightOn arms the flight recorder
// (WithFlightRecorder) alone, with a trace window open across the timed
// loop: every task span and scheduler event is written into the
// per-worker wrap-around rings. Ring slots are rewritten, never grown, and
// an open window is only a mark.
func BenchmarkSchedLinearChainFlightOn(b *testing.B) {
	e := executor.New(workers(), executor.WithFlightRecorder(1<<12))
	defer e.Shutdown()
	if !e.StartTrace() {
		b.Fatal("StartTrace failed")
	}
	benchChain(b, core.NewShared(e))
	if tr, ok := e.StopTrace(); !ok || len(tr.Events) == 0 {
		b.Fatal("no trace events were recorded during the benchmark")
	}
}

// BenchmarkSchedLinearChainAllOn arms every layer at once — counters,
// timed run stats, histograms and the flight recorder with an open
// window. They all read one stamp per task boundary, so this rung costs
// less than the sum of the single-layer deltas.
func BenchmarkSchedLinearChainAllOn(b *testing.B) {
	e := executor.New(workers(), executor.WithMetrics(),
		executor.WithLatencyHistograms(), executor.WithFlightRecorder(1<<12))
	defer e.Shutdown()
	if !e.StartTrace() {
		b.Fatal("StartTrace failed")
	}
	tf := core.NewShared(e).CollectRunStats(true)
	benchChain(b, tf)
	if tr, ok := e.StopTrace(); !ok || len(tr.Events) == 0 {
		b.Fatal("no trace events were recorded during the benchmark")
	}
	if rs, ok := tf.LastRunStats(); !ok || rs.Busy == 0 {
		b.Fatal("run stats recorded no busy time during the benchmark")
	}
}

// BenchmarkSchedDiamondRerun re-runs a 1→64→1 diamond: exercises batch
// successor submission (one Wake per fan-out) and fan-in join counters.
func BenchmarkSchedDiamondRerun(b *testing.B) {
	tf := core.New(workers())
	defer tf.Close()
	var n atomic.Int64
	src := tf.Emplace1(func() { n.Add(1) })
	sink := tf.Emplace1(func() { n.Add(1) })
	for i := 0; i < 64; i++ {
		mid := tf.Emplace1(func() { n.Add(1) })
		src.Precede(mid)
		mid.Precede(sink)
	}
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// skewedCosts builds a deterministic heavy-tailed per-element cost table:
// most elements spin a few LCG rounds, a pseudo-random ~1/16 of them spin
// 64× that. The table depends only on n, so static/guided/dynamic runs see
// the identical workload.
func skewedCosts(n int) []int {
	costs := make([]int, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range costs {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>60 == 0 {
			costs[i] = 1024
		} else {
			costs[i] = 16
		}
	}
	return costs
}

// benchmarkParallelForSkewed re-runs one ParallelForIndex over 8192
// elements with heavy-tailed per-element cost. The chunk/partitioner
// choice decides the graph shape: fine-grained static chunking (the only
// static answer to unknown skew) pays one graph node per chunk, while the
// dynamic partitioners emplace min(workers, n) claimant tasks that pull
// ranges off a shared cursor at run time.
func benchmarkParallelForSkewed(b *testing.B, chunk int, opts ...core.AlgOption) {
	tf := core.New(workers())
	defer tf.Close()
	costs := skewedCosts(8192)
	out := make([]uint64, len(costs))
	core.ParallelForIndex(tf, 0, len(costs), 1, func(i int) {
		x := uint64(i)
		for r := 0; r < costs[i]; r++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		out[i] = x
	}, chunk, opts...)
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelForSkewedStatic is the baseline: chunk=1 static
// partitioning, 8192 task nodes per run.
func BenchmarkParallelForSkewedStatic(b *testing.B) {
	benchmarkParallelForSkewed(b, 1)
}

// BenchmarkParallelForSkewedStaticCoarse is the other static corner:
// default (workers×4) chunking, few nodes but no load balance under skew.
func BenchmarkParallelForSkewedStaticCoarse(b *testing.B) {
	benchmarkParallelForSkewed(b, 0)
}

// BenchmarkParallelForSkewedGuided uses the guided partitioner: grants
// start at remaining/(2·workers) and shrink toward the grain.
func BenchmarkParallelForSkewedGuided(b *testing.B) {
	benchmarkParallelForSkewed(b, 0, core.WithPartitioner(core.Guided))
}

// BenchmarkParallelForSkewedDynamic uses the dynamic partitioner with a
// modest grain: fixed 8-element grants off the shared cursor.
func BenchmarkParallelForSkewedDynamic(b *testing.B) {
	benchmarkParallelForSkewed(b, 8, core.WithPartitioner(core.Dynamic))
}

// BenchmarkSchedWideFanout re-runs a 1→512→1 diamond on a 4-worker pool:
// the source's batch submission floods one deque and the other workers
// drain it through StealBatch, so this is the batch-stealing hot path.
// The worker count is fixed (not GOMAXPROCS-derived) so the steal traffic
// exists even on single-CPU runners.
func BenchmarkSchedWideFanout(b *testing.B) {
	tf := core.New(4)
	defer tf.Close()
	var n atomic.Int64
	src := tf.Emplace1(func() { n.Add(1) })
	sink := tf.Emplace1(func() { n.Add(1) })
	for i := 0; i < 512; i++ {
		mid := tf.Emplace1(func() { n.Add(1) })
		src.Precede(mid)
		mid.Precede(sink)
	}
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedBinaryTree re-runs a complete binary tree of depth 10
// (2047 nodes): steadily widening fan-out, the shape work stealing feeds
// on.
func BenchmarkSchedBinaryTree(b *testing.B) {
	tf := core.New(workers())
	defer tf.Close()
	var n atomic.Int64
	const depth = 10
	level := []core.Task{tf.Emplace1(func() { n.Add(1) })}
	for d := 1; d <= depth; d++ {
		next := make([]core.Task, 0, 1<<d)
		for _, p := range level {
			l := tf.Emplace1(func() { n.Add(1) })
			r := tf.Emplace1(func() { n.Add(1) })
			p.Precede(l, r)
			next = append(next, l, r)
		}
		level = next
	}
	if err := tf.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tf.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
