package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gotaskflow/internal/executor"
)

// instance is one set-up workload: the state one op runs against, plus
// the checks that prove every op's output correct.
type instance interface {
	// op runs one operation. With tr non-nil it records a span around each
	// public library call, as children of the op span the loop opened.
	op(tr *tracer, id int) error
	// after runs outside the timed region once op id has returned and
	// reports whether its output is wrong (or records what verify needs).
	after(id int) bool
	// verify runs once after the loop, outside the timed region, and marks
	// the ops whose outputs disagree with the reference. With tr non-nil it
	// records spans around the reference calls it makes.
	verify(tr *tracer, failed []bool)
	// layers computes the workload's own per-layer metrics of a traced
	// phase (spans in tr, phase result res) and may spend up to budget on
	// reference runs. It fails when a reference run disagrees.
	layers(tr *tracer, res *loopResult, budget time.Duration) (map[string]float64, error)
	exec() *executor.Executor
	close()
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat     []float64 // per-op wall time, seconds
	cpu     float64   // process user+sys CPU seconds inside the timed regions
	allocs  uint64    // heap objects allocated inside the timed regions
	bytes   uint64    // heap bytes allocated inside the timed regions
	failed  []bool    // per-op correctness verdict
	heap    []float64 // live heap MB after forced GCs between ops
	rtStart rtSample  // runtime counters at the start and end of the phase
	rtEnd   rtSample
}

func (r *loopResult) numFailed() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// maxOps caps a phase so a pathologically fast op cannot exhaust memory.
const maxOps = 1 << 20

// loopSpec says how long a closed-loop phase runs and what it records.
type loopSpec struct {
	d           time.Duration
	heapSamples int     // forced-GC heap samples spread evenly over d
	tr          *tracer // non-nil for a traced phase
	spanName    string  // the op spans' name in a traced phase
}

// closedLoop runs inst with a single client: each op starts when the
// previous one has returned and its output has been recorded. Only the op
// itself is timed; CPU time and allocations are summed over the same
// intervals, and heap samples are taken between ops.
func closedLoop(inst instance, spec loopSpec) *loopResult {
	res := &loopResult{rtStart: readRuntime()}
	var counts allocCounter
	start := time.Now()
	tr := spec.tr
	for id := 0; id < maxOps && (id == 0 || time.Since(start) < spec.d); id++ {
		c0 := cpuSeconds()
		a0, b0 := counts.read()
		sp := tr.startOp(spec.spanName, id)
		t0 := time.Now()
		err := inst.op(tr, id)
		el := time.Since(t0)
		tr.stop(sp)
		a1, b1 := counts.read()
		c1 := cpuSeconds()
		res.lat = append(res.lat, el.Seconds())
		res.cpu += c1 - c0
		res.allocs += a1 - a0
		res.bytes += b1 - b0
		res.failed = append(res.failed, inst.after(id) || err != nil)
		if n := len(res.heap); n < spec.heapSamples && time.Since(start) >= spec.d*time.Duration(n+1)/time.Duration(spec.heapSamples) {
			res.heap = append(res.heap, heapLiveMB())
		}
	}
	if len(res.heap) < spec.heapSamples {
		res.heap = append(res.heap, heapLiveMB())
	}
	res.rtEnd = readRuntime()
	return res
}

// windowSize is the fewest ops a window of the windowed figures holds.
const windowSize = 10

// summary is a loop's end-to-end figures, in seconds. Rate and median are
// medians across windows of a few consecutive ops, so that ops stretched
// by contention from outside the process (a hypervisor running another
// guest on this machine's CPUs) do not move them; the tail percentile,
// over all ops, is where those ops show. CPU per op is the total over all
// ops, since collection work lands on a few ops but every op pays for it.
type summary struct {
	opsPerSec, p50, cpuPerOp float64
	windows                  int
	tail, tailP              float64 // tail is the percentile tailP of op time
	beyond                   int     // samples beyond the tail percentile
}

func (r *loopResult) summarize() summary {
	n := len(r.lat)
	k := max(1, n/windowSize)
	var rates, p50s []float64
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		var sum float64
		for _, l := range r.lat[lo:hi] {
			sum += l
		}
		rates = append(rates, float64(hi-lo)/sum)
		p50s = append(p50s, median(r.lat[lo:hi]))
	}
	sorted := slices.Clone(r.lat)
	slices.Sort(sorted)
	p, tail, beyond := tailPercentile(sorted)
	return summary{
		opsPerSec: median(rates),
		p50:       median(p50s),
		cpuPerOp:  r.cpu / float64(n),
		windows:   k,
		tail:      tail,
		tailP:     p,
		beyond:    beyond,
	}
}

// tailPercentiles is the ladder the tail percentile is chosen from.
var tailPercentiles = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it, its value (nearest rank), and how many
// samples lie beyond it. With fewer than twenty samples it falls back to
// the median and reports the short tail as it is.
func tailPercentile(sorted []float64) (p, v float64, beyond int) {
	n := len(sorted)
	for _, q := range tailPercentiles {
		r := nearestRank(q, n)
		if n-r >= 10 {
			return q, sorted[r-1], n - r
		}
	}
	r := nearestRank(0.5, n)
	return 0.5, sorted[r-1], n - r
}

// nearestRank is the 1-based rank of quantile q among n samples.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stealSample is the host's cumulative CPU time and the part of it the
// hypervisor gave to other guests, from /proc/stat (Linux only).
type stealSample struct {
	steal, total uint64
	ok           bool
}

func readSteal() stealSample {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stealSample{}
		}
		s.total += x
		if i == 7 {
			s.steal = x
		}
	}
	s.ok = true
	return s
}

// stealNote reports the share of CPU time stolen between a and b, which
// explains wall-clock figures that moved while the program did not.
func stealNote(w io.Writer, a, b stealSample) {
	if a.ok && b.ok && b.total > a.total {
		fmt.Fprintf(w, "# host steal during the loop: %.1f%% of CPU time\n",
			100*float64(b.steal-a.steal)/float64(b.total-a.total))
	}
}

// cpuSeconds is the process's user+sys CPU time from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocCounter reads the cumulative heap allocation counts, objects and
// bytes, without allocating itself.
type allocCounter struct{ s [2]metrics.Sample }

func (a *allocCounter) read() (objects, bytes uint64) {
	a.s[0].Name = "/gc/heap/allocs:objects"
	a.s[1].Name = "/gc/heap/allocs:bytes"
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// rtSample holds the cumulative GC counters the benchmark reports as
// deltas over a phase.
type rtSample struct {
	gcCycles        uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// heapLiveMB forces a collection and returns the heap it marked live.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// execCounts is the executor counter set the traced run reports, taken
// as the difference of two MetricsSnapshots.
type execCounts struct {
	tasks, stolenTasks, steals, stealAttempts uint64
	parks, wakes, injectionDrained            uint64
	cacheHits, prewaits, waitCancels          uint64
}

func countsOf(s executor.Snapshot) execCounts {
	t := s.Total()
	return execCounts{
		tasks:            t.Executed,
		stolenTasks:      t.StolenTasks,
		steals:           t.Steals,
		stealAttempts:    t.StealAttempts,
		parks:            t.Parks,
		wakes:            s.PreciseWakes + s.ProbabilisticWakes,
		injectionDrained: t.InjectionDrainedTasks,
		cacheHits:        t.CacheHits,
		prewaits:         t.Prewaits,
		waitCancels:      t.WaitCancels,
	}
}

func (a execCounts) sub(b execCounts) execCounts {
	return execCounts{
		tasks:            a.tasks - b.tasks,
		stolenTasks:      a.stolenTasks - b.stolenTasks,
		steals:           a.steals - b.steals,
		stealAttempts:    a.stealAttempts - b.stealAttempts,
		parks:            a.parks - b.parks,
		wakes:            a.wakes - b.wakes,
		injectionDrained: a.injectionDrained - b.injectionDrained,
		cacheHits:        a.cacheHits - b.cacheHits,
		prewaits:         a.prewaits - b.prewaits,
		waitCancels:      a.waitCancels - b.waitCancels,
	}
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perOpMetrics turns a counter delta over ops operations into the
// executor.* per-layer metrics: counts per op and ratios of useful
// outcomes to attempts.
func (d execCounts) perOpMetrics(ops int) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"executor.tasks":                   float64(d.tasks) / n,
		"executor.stolen_tasks":            float64(d.stolenTasks) / n,
		"executor.parks":                   float64(d.parks) / n,
		"executor.wakes":                   float64(d.wakes) / n,
		"executor.injection_drained_tasks": float64(d.injectionDrained) / n,
		"executor.steal_success_ratio":     ratio(d.steals, d.stealAttempts),
		"executor.cache_hit_ratio":         ratio(d.cacheHits, d.tasks),
		"executor.prewait_cancel_ratio":    ratio(d.waitCancels, d.prewaits),
	}
}

// runtimeMetrics turns a phase's allocation and GC counters into the
// runtime.gc.* per-layer metrics: allocations inside the timed regions per
// op, GC cycles per op and GC's share of the CPU time over the phase.
func (r *loopResult) runtimeMetrics() map[string]float64 {
	n := float64(len(r.lat))
	a, b := r.rtStart, r.rtEnd
	frac := 0.0
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.gc.cycles":        float64(b.gcCycles-a.gcCycles) / n,
		"runtime.gc.cpu_frac":      frac,
		"runtime.gc.alloc_bytes":   float64(r.bytes) / n,
		"runtime.gc.allocs_per_op": float64(r.allocs) / n,
	}
}
