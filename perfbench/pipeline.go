package main

import (
	"fmt"
	"math/rand"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/pipeline"
)

// Stage work is a fixed count of arithmetic ops, so a preempted stage does
// not count as busy and the token rate follows the program, not the clock.
const (
	pipeLines  = 4
	mixRounds  = 48 // LCG rounds of each scalar stage
	elemRounds = 1  // LCG rounds per ForEach element
	pipeGrain  = 64 // minimum ForEach chunk
	deferEvery = 16 // every 16th token defers at the second parallel stage
)

func mix(x uint64, rounds int) uint64 {
	for i := 0; i < rounds; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func elem(x uint64, i int) uint64 { return mix(x^uint64(i), elemRounds) }

func foldBuf(buf []uint64) uint64 {
	var y uint64
	for _, v := range buf {
		y = y<<1 | y>>63
		y ^= v
	}
	return y
}

func combine(acc, z uint64) uint64 { return (acc ^ z) * 1099511628211 }

// lineState is one pipeline line's token state. A line carries one token
// at a time through every pipe, so stages of a token share it without
// locks; the padding keeps lines off each other's cache lines.
type lineState struct {
	x, y, z uint64
	buf     []uint64
	_       [64]byte
}

// pipeBench is the pipeline_observed workload: a 4-line, 6-pipe token
// pipeline on an executor with metrics, latency histograms and the flight
// recorder on, its latencies bound to a flow. One op is one Run of a fixed
// batch of tokens.
type pipeBench struct {
	seed    int64
	tokens  int64
	width   int
	payload []uint64
	lines   [pipeLines]lineState

	// Serial-pipe order checks and the fold, reset before every op.
	next3, next5 int64
	acc          uint64
	orderErr     error

	e    *executor.Executor
	flow executor.Flow
	p    *pipeline.Pipeline
	got  int64
	want uint64 // the serial model's fold, computed on first check

	base     pipeline.Stats // counters when set-up finished
	flowBase executor.FlowStats
}

// pipeOptions is the full observability stack of the observed pipeline.
func pipeOptions() []executor.Option {
	return []executor.Option{
		executor.WithMetrics(),
		executor.WithLatencyHistograms(),
		executor.WithFlightRecorder(1024),
	}
}

func newPipe(tokens, width int, seed int64, workers int, observed bool) (*pipeBench, error) {
	b := &pipeBench{seed: seed, tokens: int64(tokens), width: width, payload: make([]uint64, tokens)}
	rng := rand.New(rand.NewSource(seed))
	for i := range b.payload {
		b.payload[i] = rng.Uint64()
	}
	for l := range b.lines {
		b.lines[l].buf = make([]uint64, width)
	}
	if observed {
		b.e = executor.New(workers, pipeOptions()...)
	} else {
		b.e = executor.New(workers)
	}
	b.p = pipeline.New(b.e, pipeLines,
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			if pf.Token() >= b.tokens {
				pf.Stop()
				return
			}
			b.lines[pf.Line()].x = b.payload[pf.Token()]
		}},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: func(pf *pipeline.Pipeflow) {
			ls := &b.lines[pf.Line()]
			ls.x = mix(ls.x, mixRounds)
		}},
		pipeline.ForEach(pipeline.Parallel, func(*pipeline.Pipeflow) int { return b.width }, pipeGrain, pipeline.Guided,
			func(pf *pipeline.Pipeflow, begin, end int) {
				ls := &b.lines[pf.Line()]
				for i := begin; i < end; i++ {
					ls.buf[i] = elem(ls.x, i)
				}
			}),
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			b.checkOrder(pf, &b.next3)
			ls := &b.lines[pf.Line()]
			ls.y = foldBuf(ls.buf)
		}},
		pipeline.Pipe{Type: pipeline.Parallel, Fn: func(pf *pipeline.Pipeflow) {
			// A parked token is invoked again; the stage is idempotent.
			if tok := pf.Token(); tok > 0 && tok%deferEvery == 0 && pf.Deferrals() == 0 {
				pf.Defer(tok - 1)
			}
			ls := &b.lines[pf.Line()]
			ls.z = mix(ls.y^uint64(pf.Token()), mixRounds)
		}},
		pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
			b.checkOrder(pf, &b.next5)
			b.acc = combine(b.acc, b.lines[pf.Line()].z)
		}},
	).Named("pipeline_observed")
	if observed {
		b.flow = b.e.NewFlow("pipeline_observed", executor.FlowConfig{})
		b.p.BindFlow(b.flow)
	}
	b.got = b.p.Run() // warm the workers and the cell matrix
	if err := b.p.Err(); err != nil {
		b.e.Shutdown()
		return nil, err
	}
	b.reset()
	b.base = b.p.Stats()
	if b.flow != nil {
		b.flowBase = b.flow.Stats()
	}
	return b, nil
}

// checkOrder fails the run when a serial pipe sees tokens out of order.
func (b *pipeBench) checkOrder(pf *pipeline.Pipeflow, next *int64) {
	if pf.Token() != *next && b.orderErr == nil {
		b.orderErr = fmt.Errorf("serial pipe %d saw token %d, want %d", pf.Pipe(), pf.Token(), *next)
		pf.Fail(b.orderErr)
	}
	*next++
}

func (b *pipeBench) reset() { b.next3, b.next5, b.acc, b.orderErr = 0, 0, 0, nil }

// model runs the same stage bodies serially and returns the fold.
func (b *pipeBench) model() uint64 {
	var acc uint64
	buf := make([]uint64, b.width)
	for tok := range b.payload {
		x := mix(b.payload[tok], mixRounds)
		for i := range buf {
			buf[i] = elem(x, i)
		}
		acc = combine(acc, mix(foldBuf(buf)^uint64(tok), mixRounds))
	}
	return acc
}

func (b *pipeBench) op(tr *tracer, _ int) error {
	sp := tr.start("pipeline.run")
	b.got = b.p.Run()
	tr.stop(sp)
	return nil
}

func (b *pipeBench) after(int) bool {
	if b.want == 0 {
		b.want = b.model()
	}
	bad := b.got != b.tokens || b.p.Err() != nil || b.p.DroppedErrs() != 0 || b.acc != b.want
	b.reset()
	return bad
}

func (b *pipeBench) verify(*tracer, []bool) {}

func (b *pipeBench) layers(tr *tracer, res *loopResult, budget time.Duration) (map[string]float64, error) {
	ops := float64(len(res.lat))
	st := b.p.Stats()
	m := map[string]float64{
		"pipeline.tokens":             float64(st.Tokens-b.base.Tokens) / ops,
		"pipeline.deferrals":          float64(st.Deferrals-b.base.Deferrals) / ops,
		"executor.flow.drained_tasks": float64(b.flow.Stats().DrainedTasks-b.flowBase.DrainedTasks) / ops,
	}

	for i, t0 := 0, time.Now(); i < 3 || time.Since(t0) < budget/4; i++ {
		sp := tr.startOp("pipeline.kernel_seq", i)
		got := b.model()
		tr.stop(sp)
		if got != b.want {
			return nil, fmt.Errorf("serial model fold %d, want %d", got, b.want)
		}
	}
	m["pipeline.stage_kernel_seq_ms"] = median(tr.durations("pipeline.kernel_seq")) * 1e3

	// The read path a watchdog pays on the observed executor.
	for i, t0 := 0, time.Now(); i < 100 || time.Since(t0) < budget/20; i++ {
		sp := tr.startOp("executor.obs.read", i)
		_, ok1 := b.e.MetricsSnapshot()
		_, ok2 := b.e.LatencyStats()
		_, ok3 := b.e.FlightSnapshot()
		tr.stop(sp)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("observability read: metrics %v, latency %v, flight %v", ok1, ok2, ok3)
		}
	}
	m["executor.obs.read_us"] = median(tr.durations("executor.obs.read")) * 1e6

	// The same pipeline on a plain executor prices the observability stack.
	plain, err := newPipe(int(b.tokens), b.width, b.seed, b.e.NumWorkers(), false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	plain.want = b.want
	for i, t0 := 0, time.Now(); i < 3 || time.Since(t0) < budget*2/3; i++ {
		sp := tr.startOp("pipeline.run_plain", i)
		plain.got = plain.p.Run()
		tr.stop(sp)
		if plain.after(i) {
			return nil, fmt.Errorf("plain pipeline run %d: wrong output", i)
		}
	}
	observed := mean(tr.durations("pipeline.run"))
	m["executor.obs.tax_ns_per_token"] = (observed - mean(tr.durations("pipeline.run_plain"))) / float64(b.tokens) * 1e9
	return m, nil
}

func (b *pipeBench) exec() *executor.Executor { return b.e }
func (b *pipeBench) close()                   { b.e.Shutdown() }
