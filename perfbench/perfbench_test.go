package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gotaskflow/internal/executor"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		p, v      float64
		beyondMin int
	}{
		{1000, 0.99, 990, 10}, // exactly ten beyond p99
		{999, 0.95, 950, 49},  // p99 would leave nine
		{200, 0.95, 190, 10},
		{40, 0.75, 30, 10},
		{5, 0.5, 3, 2}, // too few for any tail: the median, short tail reported
	} {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		p, v, beyond := tailPercentile(sorted)
		if p != c.p || v != c.v || beyond != c.beyondMin {
			t.Errorf("n=%d: got p%v=%v with %d beyond, want p%v=%v with %d beyond",
				c.n, p*100, v, beyond, c.p*100, c.v, c.beyondMin)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},  // overlaps a: counted once
		{name: "c", start: 90, end: 120, parent: 0}, // clipped to the parent
		{name: "d", start: 25, end: 28, parent: 2},  // grandchild: only b loses it
		{name: "other", start: 200, end: 260, parent: -1},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lt := layerTimes(spans)
	if ms := selfMsPerOp(lt, "op", 1); ms != 50e-6 {
		t.Errorf("selfMsPerOp(op) = %v, want 5e-5", ms)
	}
}

func TestCounterDeltasPerOpAndRatioBases(t *testing.T) {
	before := executor.Snapshot{
		Workers: []executor.WorkerStats{
			{Executed: 10, StealAttempts: 5, Steals: 1, StolenTasks: 2, CacheHits: 4, Prewaits: 3, WaitCancels: 1, Parks: 2},
			{Executed: 6, StealAttempts: 5, Steals: 1, StolenTasks: 1, InjectionDrainedTasks: 3},
		},
		PreciseWakes: 2, ProbabilisticWakes: 1,
	}
	after := executor.Snapshot{
		Workers: []executor.WorkerStats{
			{Executed: 50, StealAttempts: 25, Steals: 6, StolenTasks: 12, CacheHits: 24, Prewaits: 13, WaitCancels: 6, Parks: 6},
			{Executed: 46, StealAttempts: 25, Steals: 6, StolenTasks: 11, InjectionDrainedTasks: 7},
		},
		PreciseWakes: 8, ProbabilisticWakes: 3,
	}
	m := countsOf(after).sub(countsOf(before)).perOpMetrics(4)
	want := map[string]float64{
		"executor.tasks":                   80.0 / 4,
		"executor.stolen_tasks":            20.0 / 4,
		"executor.parks":                   4.0 / 4,
		"executor.wakes":                   8.0 / 4,
		"executor.injection_drained_tasks": 4.0 / 4,
		"executor.steal_success_ratio":     10.0 / 40, // steals per steal attempt
		"executor.cache_hit_ratio":         20.0 / 80, // cache hits per executed task
		"executor.prewait_cancel_ratio":    5.0 / 10,  // cancelled waits per prewait
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if len(m) != len(want) {
		t.Errorf("got %d metrics, want %d", len(m), len(want))
	}
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio with no attempts = %v, want 0", r)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric names and
// units in step with the benchmark definition.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list []metric
		def  []struct{ Name, Unit string }
	}{{endToEnd, def.EndToEnd}, {perLayer, def.PerLayer}} {
		if len(c.list) != len(c.def) {
			t.Fatalf("program has %d metrics, BENCHMARK.json %d", len(c.list), len(c.def))
		}
		for i, m := range c.list {
			if m.name != c.def[i].Name || m.unit != c.def[i].Unit {
				t.Errorf("metric %d: program %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, c.def[i].Name, c.def[i].Unit)
			}
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(def.Workloads))
	}
	for i, w := range workloads {
		if w.name != def.Workloads[i].Name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, def.Workloads[i].Name)
		}
	}
}

var tiny = sizes{staGates: 300, waveM: 8, pipeTokens: 64, pipeWidth: 128, setupReps: 2}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced, with the correctness checks on.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.json")
				var out, errb bytes.Buffer
				args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.05", "-trace", trace, "-trace-out", spans}
				if code := run(args, tiny, &out, &errb); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %+v (present %v)", m.name, got, ok)
					}
				}
				if trace == "1" {
					checkChromeTrace(t, spans, w.name+".op")
				}
			})
		}
	}
}

func checkChromeTrace(t *testing.T, path, opName string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("span file is not trace-event JSON: %v", err)
	}
	ops := 0
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		if e.Name == opName {
			ops++
		}
	}
	if ops == 0 {
		t.Fatalf("no %s spans among %d events", opName, len(tr.TraceEvents))
	}
}

// The checks must catch a wrong output, not only pass a right one.

func TestSTACheckCatchesWrongSlack(t *testing.T) {
	b, err := newSTA(tiny.staGates, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for id := 0; id < 4; id++ {
		if err := b.op(nil, id); err != nil {
			t.Fatal(err)
		}
		b.after(id)
	}
	good := b.slack[1]
	b.slack[1] = good + 1e-9
	failed := make([]bool, 4)
	b.verify(nil, failed)
	if want := []bool{false, true, false, false}; !slices.Equal(failed, want) {
		t.Fatalf("failed = %v, want %v", failed, want)
	}
	b.slack[1] = good
	b.tm.Arrival[0][0] += 1
	failed = make([]bool, 4)
	b.verify(nil, failed)
	if want := []bool{false, false, false, true}; !slices.Equal(failed, want) {
		t.Fatalf("after corrupting an arrival: failed = %v, want %v", failed, want)
	}
}

func TestWavefrontCheckCatchesWrongChecksum(t *testing.T) {
	w, err := newWave(tiny.waveM, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.op(nil, 0); err != nil || w.after(0) {
		t.Fatalf("good op flagged (err %v)", err)
	}
	// after cleared the grid; without a run the checksum is wrong.
	if !w.after(1) {
		t.Fatal("an op that ran nothing passed")
	}
}

func TestPipelineCheckCatchesWrongFold(t *testing.T) {
	b, err := newPipe(tiny.pipeTokens, tiny.pipeWidth, 5, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.op(nil, 0); err != nil || b.after(0) {
		t.Fatalf("good op flagged (err %v)", err)
	}
	b.op(nil, 1)
	b.acc++
	if !b.after(1) {
		t.Fatal("a wrong fold passed")
	}
}
