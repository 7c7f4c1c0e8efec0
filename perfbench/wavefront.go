package main

import (
	"fmt"
	"time"

	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/wavefront"
)

// waveBench is the wavefront_rerun workload: the Figure 7 m×m wavefront
// built once and re-run as a resident graph, so each op is pure
// scheduling of ~100 ns tasks.
type waveBench struct {
	m       int
	workers int
	e       *executor.Executor
	tf      *core.Taskflow
	g       [][]uint64
	want    uint64 // wavefront.Sequential's checksum, computed on first check
}

func newWave(m, workers int, opts ...executor.Option) (*waveBench, error) {
	e := executor.New(workers, opts...)
	tf := core.NewShared(e)
	w := &waveBench{m: m, workers: workers, e: e, tf: tf, g: wavefront.Build(tf, m, wavefront.Spin)}
	// The first run builds the reusable topology; ops re-run it.
	if err := tf.Run(); err != nil {
		e.Shutdown()
		return nil, err
	}
	w.clear()
	return w, nil
}

// clear zeroes the blocks every task writes, so an op that skipped a task
// cannot pass on the previous op's checksum.
func (w *waveBench) clear() {
	for i := 1; i <= w.m; i++ {
		clear(w.g[i][1:])
	}
}

func (w *waveBench) op(tr *tracer, _ int) error {
	sp := tr.start("core.run")
	err := w.tf.Run()
	tr.stop(sp)
	return err
}

func (w *waveBench) after(int) bool {
	if w.want == 0 {
		w.want = wavefront.Sequential(w.m, wavefront.Spin)
	}
	bad := w.g[w.m][w.m] != w.want
	w.clear()
	return bad
}

func (w *waveBench) verify(*tracer, []bool) {}

func (w *waveBench) layers(tr *tracer, res *loopResult, budget time.Duration) (map[string]float64, error) {
	half := budget / 2
	for i, t0 := 0, time.Now(); i < 3 || time.Since(t0) < half; i++ {
		sp := tr.startOp("wavefront.sequential", i)
		got := wavefront.Sequential(w.m, wavefront.Spin)
		tr.stop(sp)
		if got != w.want {
			return nil, fmt.Errorf("wavefront.Sequential checksum %d, want %d", got, w.want)
		}
	}
	for i, t0 := 0, time.Now(); i < 3 || time.Since(t0) < half; i++ {
		sp := tr.startOp("flowgraph.run", i)
		got := wavefront.FlowGraph(w.m, wavefront.Spin, w.workers)
		tr.stop(sp)
		if got != w.want {
			return nil, fmt.Errorf("wavefront.FlowGraph checksum %d, want %d", got, w.want)
		}
	}
	ops := len(res.lat)
	runMs := selfMsPerOp(layerTimes(tr.spans), "core.run", ops)
	kernelMs := median(tr.durations("wavefront.sequential")) * 1e3
	tasks := float64(wavefront.NumTasks(w.m))
	return map[string]float64{
		"core.run_ms":                   runMs,
		"wavefront.kernel_seq_ms":       kernelMs,
		"executor.overhead_ns_per_task": (runMs*float64(w.workers) - kernelMs) / tasks * 1e6,
		"flowgraph.run_ms_p50":          median(tr.durations("flowgraph.run")) * 1e3,
	}, nil
}

func (w *waveBench) exec() *executor.Executor { return w.e }
func (w *waveBench) close()                   { w.e.Shutdown() }
