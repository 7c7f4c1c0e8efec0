package stav2

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/circuit"
	"gotaskflow/internal/core"
	"gotaskflow/internal/executor"
	"gotaskflow/internal/sta"
)

const clock = 2000.0

func compare(t *testing.T, got, ref *sta.Timing, label string) {
	t.Helper()
	for v := range got.Ckt.Gates {
		for tr := 0; tr < 2; tr++ {
			if got.Arrival[tr][v] != ref.Arrival[tr][v] {
				t.Fatalf("%s: arrival[%d][%d] = %v, want %v", label, tr, v, got.Arrival[tr][v], ref.Arrival[tr][v])
			}
			if got.Slew[tr][v] != ref.Slew[tr][v] {
				t.Fatalf("%s: slew[%d][%d] mismatch", label, tr, v)
			}
			if got.Required[tr][v] != ref.Required[tr][v] {
				t.Fatalf("%s: required[%d][%d] = %v, want %v", label, tr, v, got.Required[tr][v], ref.Required[tr][v])
			}
			if got.Slack[tr][v] != ref.Slack[tr][v] {
				t.Fatalf("%s: slack[%d][%d] mismatch", label, tr, v)
			}
			if got.EarlyArrival[tr][v] != ref.EarlyArrival[tr][v] {
				t.Fatalf("%s: early arrival[%d][%d] mismatch", label, tr, v)
			}
			if got.EarlySlack[tr][v] != ref.EarlySlack[tr][v] {
				t.Fatalf("%s: early slack[%d][%d] mismatch", label, tr, v)
			}
		}
	}
}

func TestFullUpdateMatchesSequential(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1500, Seed: 8})
	tm := sta.New(ckt, clock)
	a := New(tm, 4)
	defer a.Close()
	a.Run(tm.FullUpdate())

	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "full")
}

func TestIncrementalMatchesSequential(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1000, Seed: 17})
	tm := sta.New(ckt, clock)
	a := New(tm, 4)
	defer a.Close()
	a.Run(tm.FullUpdate())

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		seeds := tm.RandomModifier(rng)
		if len(seeds) == 0 {
			continue
		}
		a.Run(tm.PrepareUpdate(seeds))
		ref := sta.New(ckt, clock)
		ref.FullUpdateSequential()
		compare(t, tm, ref, "incremental")
	}
}

func TestV1V2Agree(t *testing.T) {
	// The paper's central claim setup: v1 and v2 compute identical timing.
	ckt1 := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 33})
	ckt2 := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 33})
	tm2 := sta.New(ckt2, clock)
	a2 := New(tm2, 2)
	defer a2.Close()
	a2.Run(tm2.FullUpdate())

	ref := sta.New(ckt1, clock)
	ref.FullUpdateSequential()
	compare(t, tm2, ref, "v2-vs-seq")
}

func TestSharedExecutor(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	ckt := circuit.Generate("t", circuit.Config{Gates: 300, Seed: 3})
	tm := sta.New(ckt, clock)
	a := NewShared(tm, e)
	a.Run(tm.FullUpdate())
	if a.NumWorkers() != 2 {
		t.Fatalf("NumWorkers = %d", a.NumWorkers())
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "shared")
}

func TestTaskflowDumpFigure8(t *testing.T) {
	// The paper's Figure 8: the task dependency graph of a single timing
	// update on the sample circuit.
	ckt := circuit.Figure8()
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	tf := a.Taskflow(tm.FullUpdate())
	var sb strings.Builder
	if err := tf.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"inp1"`, `"u1"`, `"u4"`, `"f1:D"`, `"out"`, `"u1" -> "u4";`, `"fwd_bwd_barrier"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if err := tf.WaitForAll(); err != nil {
		t.Fatal(err)
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "figure8")
}

func TestRepeatedIncrementalStress(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 2000, Seed: 77})
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	a.Run(tm.FullUpdate())
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 100; iter++ {
		seeds := tm.RandomModifier(rng)
		if len(seeds) == 0 {
			continue
		}
		a.Run(tm.PrepareUpdate(seeds))
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "stress")
}

// TestAnalyzerRunZeroAlloc checks that re-running the resident graph over
// precomputed incremental updates allocates nothing.
func TestAnalyzerRunZeroAlloc(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1500, Seed: 9})
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	updates := []sta.Update{tm.FullUpdate()}
	rng := rand.New(rand.NewSource(4))
	for len(updates) < 16 {
		if seeds := tm.RandomModifier(rng); len(seeds) > 0 {
			updates = append(updates, tm.PrepareUpdate(seeds))
		}
	}
	// Warm up: let the deques and injection rings reach their steady size.
	for range 3 {
		for _, u := range updates {
			if err := a.Run(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.Run(updates[i%len(updates)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Run allocates %.1f objects per update, want 0", allocs)
	}
}

// TestEdgeShapedUpdatesMatchSequential runs updates the cone extraction
// never produces — empty, forward-only, backward-only and a non-closed
// hand-built subset — plus FullUpdate, and checks each against
// RunSequential of the same update bit for bit.
func TestEdgeShapedUpdatesMatchSequential(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 1200, Seed: 21})
	got, ref := sta.New(ckt, clock), sta.New(ckt, clock)
	a := New(got, 2)
	defer a.Close()
	if err := a.Run(got.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	ref.FullUpdateSequential()

	rng := rand.New(rand.NewSource(8))
	cone := func() sta.Update {
		// Each case starts from a fresh design change, so the update has
		// real work to redo.
		for {
			if seeds := got.RandomModifier(rng); len(seeds) > 0 {
				return got.PrepareUpdate(seeds)
			}
		}
	}
	subset := func() sta.Update {
		var u sta.Update
		for v := 0; v < ckt.NumGates(); v++ {
			if rng.Intn(3) == 0 {
				u.Fwd = append(u.Fwd, v)
			}
		}
		for v := ckt.NumGates() - 1; v >= 0; v-- {
			if rng.Intn(3) == 0 {
				u.Bwd = append(u.Bwd, v)
			}
		}
		return u
	}
	cases := []struct {
		name string
		u    func() sta.Update
	}{
		{"empty", func() sta.Update { cone(); return sta.Update{} }},
		{"forward-only", func() sta.Update { return sta.Update{Fwd: cone().Fwd} }},
		{"backward-only", func() sta.Update { return sta.Update{Bwd: cone().Bwd} }},
		{"subset", func() sta.Update { cone(); return subset() }},
		{"full", func() sta.Update { cone(); return got.FullUpdate() }},
	}
	for _, c := range cases {
		u := c.u()
		if err := a.Run(u); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref.RunSequential(u)
		compare(t, got, ref, c.name)
	}
}

// TestRunPanicReturnsError removes one gate's cell so its forward
// propagation panics: Run must return the panic as an error naming the
// gate, and after the cell is restored the next Run must be correct.
func TestRunPanicReturnsError(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 800, Seed: 5})
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	defer a.Close()
	if err := a.Run(tm.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	v := -1
	for i, g := range ckt.Gates {
		if g.Kind == circuit.Comb && len(g.Fanout) > 0 {
			v = i
			break
		}
	}
	u := tm.PrepareUpdate(tm.SetWireCap(v, 3))
	cell := ckt.Gates[v].Cell
	ckt.Gates[v].Cell = nil
	err := a.Run(u)
	ckt.Gates[v].Cell = cell
	if err == nil || !strings.Contains(err.Error(), ckt.Gates[v].Name) {
		t.Fatalf("Run with a nil cell returned %v, want a panic error naming %q", err, ckt.Gates[v].Name)
	}
	if err := a.Run(u); err != nil {
		t.Fatal(err)
	}
	ref := sta.New(ckt, clock)
	ref.FullUpdateSequential()
	compare(t, tm, ref, "after restore")
}

// TestRunAfterShutdown checks that Run on a shut-down executor returns
// ErrShutdown instead of waiting for tasks that can never run.
func TestRunAfterShutdown(t *testing.T) {
	ckt := circuit.Generate("t", circuit.Config{Gates: 200, Seed: 2})
	tm := sta.New(ckt, clock)
	a := New(tm, 2)
	a.Close()
	done := make(chan error, 1)
	go func() { done <- a.Run(tm.FullUpdate()) }()
	select {
	case err := <-done:
		if !errors.Is(err, executor.ErrShutdown) {
			t.Fatalf("Run after Shutdown = %v, want ErrShutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run after Shutdown still blocked after 10s")
	}
}

// TestSharedExecutorConcurrentClients runs two analyzers and a
// core.Taskflow on one executor at the same time (meaningful under
// -race) and checks both analyzers' timing afterwards.
func TestSharedExecutorConcurrentClients(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	timings := make([]*sta.Timing, 2)
	for i := range timings {
		ckt := circuit.Generate("t", circuit.Config{Gates: 600, Seed: int64(i + 1)})
		tm := sta.New(ckt, clock)
		timings[i] = tm
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewShared(tm, e)
			if err := a.Run(tm.FullUpdate()); err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(i)))
			for range 30 {
				if seeds := tm.RandomModifier(rng); len(seeds) > 0 {
					if err := a.Run(tm.PrepareUpdate(seeds)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tf := core.NewShared(e)
		var n atomic.Int64
		src := tf.Emplace1(func() { n.Add(1) })
		for range 64 {
			tf.Emplace1(func() { n.Add(1) }).Succeed(src)
		}
		for range 30 {
			if err := tf.Run(); err != nil {
				errs <- err
				return
			}
		}
		if n.Load() != 30*65 {
			errs <- fmt.Errorf("taskflow ran %d tasks, want %d", n.Load(), 30*65)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, tm := range timings {
		ref := sta.New(tm.Ckt, clock)
		ref.FullUpdateSequential()
		compare(t, tm, ref, fmt.Sprintf("analyzer %d", i))
	}
}

// TestRunNamesEveryGate checks that a trace of Run names every gate
// task: forward tasks as the gate, backward tasks primed.
func TestRunNamesEveryGate(t *testing.T) {
	ckt := circuit.Figure8()
	tm := sta.New(ckt, clock)
	e := executor.New(2, executor.WithFlightRecorder(1<<12))
	a := NewShared(tm, e)
	defer a.Close()
	if !e.StartTrace() {
		t.Fatal("StartTrace failed")
	}
	if err := a.Run(tm.FullUpdate()); err != nil {
		t.Fatal(err)
	}
	tr, _ := e.StopTrace()
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d events", tr.Dropped)
	}
	names := map[string]bool{}
	for _, ev := range tr.Events {
		if ev.Kind == executor.EvTaskStart {
			names[ev.Meta.Flow+"/"+ev.Meta.Name] = true
		}
	}
	for _, g := range ckt.Gates {
		for _, name := range []string{g.Name, g.Name + "'"} {
			if !names["timing_update/"+name] {
				t.Fatalf("no traced task named %q; saw %v", name, names)
			}
		}
	}
	if len(names) != 2*ckt.NumGates() {
		t.Fatalf("traced %d task names, want %d", len(names), 2*ckt.NumGates())
	}
}
