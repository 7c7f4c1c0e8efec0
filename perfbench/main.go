// Command perfbench is the repository's benchmark. It drives the library
// through its public calls on three closed-loop workloads with a single
// client, checks every op's output, and prints the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a traced run, ending with one JSON
// line.
//
//	go run . -workload sta_incremental -seed 1 -seconds 15 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"gotaskflow/internal/executor"
)

// sizes fixes the input scale of every workload.
type sizes struct {
	staGates   int // gates of the synthetic tv80-scale circuit
	waveM      int // wavefront side: m×m tasks
	pipeTokens int // tokens per pipeline Run
	pipeWidth  int // ForEach elements per token
	setupReps  int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{staGates: 5300, waveM: 96, pipeTokens: 2000, pipeWidth: 2048, setupReps: 7}

type workload struct {
	name string
	// setup builds a ready instance; traced adds executor metrics where
	// the workload runs without them.
	setup func(sz sizes, seed int64, workers int, traced bool) (instance, error)
}

var workloads = []workload{
	{"sta_incremental", func(sz sizes, seed int64, workers int, traced bool) (instance, error) {
		b, err := newSTA(sz.staGates, seed, workers, tracedOptions(traced)...)
		if err != nil {
			return nil, err
		}
		return b, nil
	}},
	{"wavefront_rerun", func(sz sizes, _ int64, workers int, traced bool) (instance, error) {
		b, err := newWave(sz.waveM, workers, tracedOptions(traced)...)
		if err != nil {
			return nil, err
		}
		return b, nil
	}},
	{"pipeline_observed", func(sz sizes, seed int64, workers int, _ bool) (instance, error) {
		b, err := newPipe(sz.pipeTokens, sz.pipeWidth, seed, workers, true)
		if err != nil {
			return nil, err
		}
		return b, nil
	}},
}

// tracedOptions gives a traced phase's executor the scheduler counters.
func tracedOptions(traced bool) []executor.Option {
	if traced {
		return []executor.Option{executor.WithMetrics()}
	}
	return nil
}

// metric is one reported figure; the lists below fix names, units and
// order.
type metric struct{ name, unit string }

// endToEnd is the metrics of an untraced run that BENCHMARK.json bounds:
// the resource costs a user pays, which hold still when the hypervisor
// takes CPU time away from this machine. The wall-clock figures (rate,
// median and tail op time) move with that stolen time by more than any
// bound a regression check can use, so they are printed beside the steal
// share but not bounded.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer is every per-layer metric. A traced run prints all of them; a
// layer its workload does not exercise reads 0.
var perLayer = []metric{
	{"sta.prepare_ms", "ms"},
	{"sta.cone_tasks", "tasks/op"},
	{"sta.kernel_seq_ms", "ms"},
	{"stav2.build_ms", "ms"},
	{"core.dispatch_ms", "ms"},
	{"core.wait_ms", "ms"},
	{"stav1.update_ms_p50", "ms"},
	{"core.run_ms", "ms"},
	{"wavefront.kernel_seq_ms", "ms"},
	{"executor.overhead_ns_per_task", "ns/task"},
	{"flowgraph.run_ms_p50", "ms"},
	{"pipeline.tokens", "tokens/op"},
	{"pipeline.deferrals", "count/op"},
	{"pipeline.stage_kernel_seq_ms", "ms"},
	{"executor.obs.tax_ns_per_token", "ns/token"},
	{"executor.obs.read_us", "us"},
	{"executor.flow.drained_tasks", "tasks/op"},
	{"executor.tasks", "tasks/op"},
	{"executor.stolen_tasks", "tasks/op"},
	{"executor.parks", "count/op"},
	{"executor.wakes", "count/op"},
	{"executor.injection_drained_tasks", "tasks/op"},
	{"executor.steal_success_ratio", "ratio"},
	{"executor.cache_hit_ratio", "ratio"},
	{"executor.prewait_cancel_ratio", "ratio"},
	{"runtime.gc.cycles", "count/op"},
	{"runtime.gc.cpu_frac", "frac"},
	{"runtime.gc.alloc_bytes", "B/op"},
	{"runtime.gc.allocs_per_op", "count/op"},
	{"trace.overhead_frac", "frac"},
	{"trace.layer_coverage_frac", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr))
}

// result is the final JSON line.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricOutcome `json:"metrics"`
}

type metricOutcome struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sta_incremental, wavefront_rerun or pipeline_observed")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	traceOut := fs.String("trace-out", "", "file for the traced run's spans as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	switch {
	case i < 0:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	w := workloads[i]
	workers := runtime.NumCPU()
	budget := time.Duration(*seconds * float64(time.Second))
	host := hostTags(workers)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%v trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host nproc=%s gomaxprocs=%s go=%s cpu=%q workers=%s\n",
		host["nproc"], host["gomaxprocs"], host["go"], host["cpu"], host["workers"])

	var res result
	var err error
	if *trace == 0 {
		res, err = measure(w, sz, *seed, workers, budget, stdout)
	} else {
		res, err = traced(w, sz, *seed, workers, budget, *traceOut, host, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "error_ratio %.6g (%d of %d ops failed their check)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops produced wrong output\n", w.name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measure is the untraced run: set up setupReps times, then one closed
// loop over the last instance, then the checks.
func measure(w workload, sz sizes, seed int64, workers int, budget time.Duration, out io.Writer) (result, error) {
	var inst instance
	var setupCPU, setupWall []float64
	for i := 0; i < sz.setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC() // every set-up starts from the same collected heap
		c0, t0 := cpuSeconds(), time.Now()
		var err error
		if inst, err = w.setup(sz, seed, workers, false); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-c0)
	}
	defer inst.close()
	runtime.GC()
	// The live heap of a workload that builds per op depends on which
	// retired graphs are still reachable at the instant of the GC, so it is
	// sampled across the loop.
	steal0 := readSteal()
	r := closedLoop(inst, loopSpec{d: budget, heapSamples: 8})
	stealNote(out, steal0, readSteal())
	inst.verify(nil, r.failed)

	n := len(r.lat)
	e := r.summarize()
	win := fmt.Sprintf("median of %d windows of %d+ ops, n=%d", e.windows, n/e.windows, n)
	lines := []struct {
		name, unit string
		v          float64
		note       string
	}{
		{"setup_s", "s", median(setupCPU), fmt.Sprintf("process user+sys CPU of a set-up, median of %d; wall %.6g s", len(setupCPU), median(setupWall))},
		{"ops_per_s", "1/s", e.opsPerSec, "single closed-loop client; " + win},
		{"op_p50_ms", "ms", e.p50 * 1e3, win},
		{"op_p99_ms", "ms", e.tail * 1e3, fmt.Sprintf("p%g, %d samples beyond it, n=%d", e.tailP*100, e.beyond, n)},
		{"cpu_ms_per_op", "ms", e.cpuPerOp * 1e3, fmt.Sprintf("process user+sys from getrusage over all %d ops", n)},
		{"heap_live_mb", "MB", median(r.heap), fmt.Sprintf("median of %d forced-GC samples across the loop, the last at its end", len(r.heap))},
		{"allocs_per_op", "count", float64(r.allocs) / float64(n), "heap objects, runtime/metrics"},
	}
	res := result{Attempted: n, Metrics: map[string]metricOutcome{}}
	for _, l := range lines {
		fmt.Fprintf(out, "%-14s %14.6g %-5s (%s)\n", l.name, l.v, l.unit, l.note)
		if slices.ContainsFunc(endToEnd, func(m metric) bool { return m.name == l.name }) {
			res.Metrics[l.name] = metricOutcome{l.v, l.unit}
		}
	}
	res.Failed = r.numFailed()
	res.Correct = res.Failed == 0
	return res, nil
}

// traced is the traced run: an untraced phase and a traced phase of the
// same workload (the traced one with executor metrics and a span around
// every public call), then the workload's reference runs.
func traced(w workload, sz sizes, seed int64, workers int, budget time.Duration, traceOut string, host map[string]string, out io.Writer) (result, error) {
	phase := budget * 2 / 5

	plain, err := w.setup(sz, seed, workers, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	r0 := closedLoop(plain, loopSpec{d: phase})
	plain.verify(nil, r0.failed)
	plain.close()

	inst, err := w.setup(sz, seed, workers, true)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	runtime.GC()
	tr := newTracer()
	opName := w.name + ".op"
	s0, ok0 := inst.exec().MetricsSnapshot()
	steal0 := readSteal()
	r1 := closedLoop(inst, loopSpec{d: phase, tr: tr, spanName: opName})
	stealNote(out, steal0, readSteal())
	s1, ok1 := inst.exec().MetricsSnapshot()
	if !ok0 || !ok1 {
		return result{}, errors.New("traced executor has no metrics")
	}
	inst.verify(tr, r1.failed)
	lm, err := inst.layers(tr, r1, budget-2*phase)
	if err != nil {
		return result{}, err
	}

	ops := len(r1.lat)
	vals := map[string]float64{}
	for k, v := range countsOf(s1).sub(countsOf(s0)).perOpMetrics(ops) {
		vals[k] = v
	}
	for k, v := range r1.runtimeMetrics() {
		vals[k] = v
	}
	for k, v := range lm {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = 1 - r1.summarize().opsPerSec/r0.summarize().opsPerSec

	lt := layerTimes(tr.spans)
	for _, l := range lt {
		if l.name == opName {
			vals["trace.layer_coverage_frac"] = 1 - float64(l.self)/float64(l.wall)
		}
	}
	fmt.Fprintf(out, "# layer self time (span minus the union of its children); the traced phase ran %d ops:\n", ops)
	for _, l := range lt {
		fmt.Fprintf(out, "#   %-28s %7d spans  self %10.3f ms  wall %10.3f ms  self per span %9.4f ms\n",
			l.name, l.count, float64(l.self)/1e6, float64(l.wall)/1e6, float64(l.self)/1e6/float64(l.count))
	}

	if traceOut != "" {
		if err := writeTraceFile(traceOut, tr.spans, host); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", traceOut)
	}

	res := result{
		Attempted: len(r0.lat) + ops,
		Failed:    r0.numFailed() + r1.numFailed(),
		Metrics:   map[string]metricOutcome{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOutcome{vals[m.name], m.unit}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func writeTraceFile(path string, spans []span, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := writeChrome(bw, spans, meta); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// hostTags identifies the machine a result came from, so figures from
// different hosts are never compared unawares.
func hostTags(workers int) map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"workers":    fmt.Sprint(workers),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
