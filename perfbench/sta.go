package main

import (
	"math/rand"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/experiments"
	"gotaskflow/internal/sta"
	"gotaskflow/internal/stav1"
	"gotaskflow/internal/stav2"
)

// staBench is the sta_incremental workload: the Figure 9 modifier-then-
// update loop on a synthetic tv80-scale circuit, driven through
// stav2.Analyzer. Each op builds a fresh task graph over the update's
// affected cone.
type staBench struct {
	design  experiments.Design
	workers int
	e       *executor.Executor
	tm      *sta.Timing
	a       *stav2.Analyzer
	rng     *rand.Rand
	last    sta.Update

	slack []float64 // worst slack after each op
	cone  []float64 // cone tasks of each op
}

// modifierSeed derives the modifier stream's seed from the workload seed,
// apart from the circuit seed the same value drives.
func modifierSeed(seed int64) int64 { return seed*1_000_003 + 7 }

func newSTA(gates int, seed int64, workers int, opts ...executor.Option) (*staBench, error) {
	d := experiments.Design{Name: "tv80", Gates: gates, Seed: seed}
	tm := sta.New(d.Build(1), experiments.ClockPeriod)
	e := executor.New(workers, opts...)
	a := stav2.NewShared(tm, e)
	if err := a.Run(tm.FullUpdate()); err != nil {
		a.Close()
		return nil, err
	}
	return &staBench{
		design: d, workers: workers, e: e, tm: tm, a: a,
		rng: rand.New(rand.NewSource(modifierSeed(seed))),
	}, nil
}

func (s *staBench) op(tr *tracer, id int) error {
	if tr == nil {
		s.last = s.tm.PrepareUpdate(s.tm.RandomModifier(s.rng))
		return s.a.Run(s.last)
	}
	// Analyzer.Run is Taskflow + WaitForAll; the traced op makes the same
	// calls one by one so each layer gets its own span.
	sp := tr.start("sta.prepare")
	s.last = s.tm.PrepareUpdate(s.tm.RandomModifier(s.rng))
	tr.stop(sp)
	sp = tr.start("stav2.build")
	tf := s.a.Taskflow(s.last)
	tr.stop(sp)
	sp = tr.start("core.dispatch")
	f := tf.Dispatch()
	tr.stop(sp)
	sp = tr.start("core.wait")
	err := f.Get()
	tr.stop(sp)
	return err
}

func (s *staBench) after(int) bool {
	ws, _ := s.tm.WorstSlack()
	s.slack = append(s.slack, ws)
	s.cone = append(s.cone, float64(s.last.NumTasks()))
	return false
}

// verify replays the op stream on two twins built from the same seed —
// the sequential kernel and the levelized stav1 driver — and checks every
// op's worst slack against both, then every timing array at the end.
func (s *staBench) verify(tr *tracer, failed []bool) {
	seq := sta.New(s.design.Build(1), experiments.ClockPeriod)
	seq.FullUpdateSequential()
	v1 := sta.New(s.design.Build(1), experiments.ClockPeriod)
	a1 := stav1.New(v1, s.workers)
	defer a1.Close()
	a1.Run(v1.FullUpdate())

	seqRng := rand.New(rand.NewSource(modifierSeed(s.design.Seed)))
	v1Rng := rand.New(rand.NewSource(modifierSeed(s.design.Seed)))
	for i := range s.slack {
		u := seq.PrepareUpdate(seq.RandomModifier(seqRng))
		sp := tr.startOp("sta.kernel_seq", i)
		seq.RunSequential(u)
		tr.stop(sp)

		u1 := v1.PrepareUpdate(v1.RandomModifier(v1Rng))
		sp = tr.startOp("stav1.update", i)
		a1.Run(u1)
		tr.stop(sp)

		wsSeq, _ := seq.WorstSlack()
		wsV1, _ := v1.WorstSlack()
		if s.slack[i] != wsSeq || s.slack[i] != wsV1 {
			failed[i] = true
		}
	}
	if n := len(failed); n > 0 && (!sameTiming(s.tm, seq) || !sameTiming(v1, seq)) {
		failed[n-1] = true
	}
}

// sameTiming compares every arrival, slew, required and slack array, late
// and early, bit for bit.
func sameTiming(a, b *sta.Timing) bool {
	for tr := 0; tr < 2; tr++ {
		for _, p := range [][2][]float64{
			{a.Arrival[tr], b.Arrival[tr]},
			{a.Slew[tr], b.Slew[tr]},
			{a.Required[tr], b.Required[tr]},
			{a.Slack[tr], b.Slack[tr]},
			{a.EarlyArrival[tr], b.EarlyArrival[tr]},
			{a.EarlySlew[tr], b.EarlySlew[tr]},
			{a.EarlyRequired[tr], b.EarlyRequired[tr]},
			{a.EarlySlack[tr], b.EarlySlack[tr]},
		} {
			if len(p[0]) != len(p[1]) {
				return false
			}
			for v := range p[0] {
				if p[0][v] != p[1][v] {
					return false
				}
			}
		}
	}
	return true
}

func (s *staBench) layers(tr *tracer, res *loopResult, _ time.Duration) (map[string]float64, error) {
	lt := layerTimes(tr.spans)
	ops := len(res.lat)
	return map[string]float64{
		"sta.prepare_ms":      selfMsPerOp(lt, "sta.prepare", ops),
		"sta.cone_tasks":      mean(s.cone),
		"sta.kernel_seq_ms":   mean(tr.durations("sta.kernel_seq")) * 1e3,
		"stav2.build_ms":      selfMsPerOp(lt, "stav2.build", ops),
		"core.dispatch_ms":    selfMsPerOp(lt, "core.dispatch", ops),
		"core.wait_ms":        selfMsPerOp(lt, "core.wait", ops),
		"stav1.update_ms_p50": median(tr.durations("stav1.update")) * 1e3,
	}, nil
}

func (s *staBench) exec() *executor.Executor { return s.e }
func (s *staBench) close()                   { s.a.Close() }
