// Command pipestream is the pipeline throughput driver and CI smoke
// gate: it pumps tokens through a mixed serial/parallel/data-parallel
// pipeline via RunN, reports tokens/sec, and exits non-zero unless the
// run processed every token at a positive rate with a clean Err. The
// pipeline shape mirrors BenchmarkPipelineThroughput (serial head, ~1µs
// stages, a guided ForEach fan-out stage, serial tail with every-16th
// checkpoint deferral), so the smoke run exercises reuse, fan-out joins
// and token parking in one binary.
//
// Usage:
//
//	pipestream -workers 4 -lines 8 -stages 6 -tokens 20000 -runs 3
//	           [-trace lines.json] [-prom metrics.txt] [-latency]
//
// With -trace the run is captured and rendered with one Perfetto track
// per pipeline line (tracing.WriteLineTrace), with per-line occupancy in
// the metadata. With -prom the gotaskflow_pipeline_* series are written
// in the Prometheus text format. With -latency the executor records
// token end-to-end latency histograms and the p50/p99 are printed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/metrics"
	"gotaskflow/internal/pipeline"
	"gotaskflow/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipestream: ")
	var (
		workers  = flag.Int("workers", 0, "executor workers (0 = GOMAXPROCS)")
		lines    = flag.Int("lines", 8, "pipeline lines (tokens in flight)")
		stages   = flag.Int("stages", 6, "pipe count including head and tail (min 3)")
		tokens   = flag.Int64("tokens", 20000, "tokens per run")
		runs     = flag.Int("runs", 3, "RunN batches through the one pre-built pipeline")
		work     = flag.Duration("work", time.Microsecond, "spin per scalar stage per token")
		traceOut = flag.String("trace", "", "write a per-line Perfetto trace (Chrome JSON) to this file")
		promOut  = flag.String("prom", "", "write gotaskflow_pipeline_* Prometheus series to this file")
		latency  = flag.Bool("latency", false, "record token e2e latency histograms and print p50/p99")
	)
	flag.Parse()
	if *stages < 3 {
		log.Fatal("-stages must be at least 3 (head, one middle stage, tail)")
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	opts := []executor.Option{}
	if *traceOut != "" {
		opts = append(opts, executor.WithFlightRecorder(1<<14))
	}
	if *latency {
		opts = append(opts, executor.WithLatencyHistograms())
	}
	e := executor.New(*workers, opts...)
	defer e.Shutdown()

	spin := func(d time.Duration) {
		start := time.Now()
		for time.Since(start) < d {
		}
	}

	// Shape: serial head generates; stage 1 is a guided ForEach fan-out;
	// remaining middles alternate parallel/serial spinning stages; the
	// tail is serial with an every-16th-token checkpoint deferral.
	sink := make([]int64, 2048)
	pipes := make([]pipeline.Pipe, *stages)
	pipes[0] = pipeline.Pipe{Type: pipeline.Serial, Fn: func(pf *pipeline.Pipeflow) {
		if pf.Token() >= *tokens {
			pf.Stop()
		}
	}}
	pipes[1] = pipeline.ForEach(pipeline.Parallel,
		func(*pipeline.Pipeflow) int { return len(sink) },
		256, pipeline.Guided,
		func(pf *pipeline.Pipeflow, begin, end int) {
			for i := begin; i < end; i++ {
				sink[i] += pf.Token()
			}
		})
	for i := 2; i < *stages-1; i++ {
		ty := pipeline.Parallel
		if i%3 == 0 {
			ty = pipeline.Serial
		}
		pipes[i] = pipeline.Pipe{Type: ty, Fn: func(*pipeline.Pipeflow) { spin(*work) }}
	}
	pipes[*stages-1] = pipeline.Pipe{Type: pipeline.Parallel, Fn: func(pf *pipeline.Pipeflow) {
		if tok := pf.Token(); tok%16 == 0 && tok > 0 {
			pf.Defer(tok - 1)
		}
		spin(*work)
	}}

	p := pipeline.New(e, *lines, pipes...).Named("pipestream")

	if *traceOut != "" && !e.StartTrace() {
		log.Fatal("StartTrace refused")
	}
	start := time.Now()
	n := p.RunN(*runs)
	elapsed := time.Since(start)
	if err := p.Err(); err != nil {
		log.Fatalf("pipeline failed: %v", err)
	}
	want := *tokens * int64(*runs)
	if n != want {
		log.Fatalf("processed %d tokens, want %d", n, want)
	}
	rate := float64(n) / elapsed.Seconds()
	if rate <= 0 {
		log.Fatalf("tokens/sec = %v, want > 0", rate)
	}
	st := p.Stats()
	fmt.Printf("pipestream: %d tokens (%d runs) over %d lines × %d stages on %d workers in %v — %.0f tokens/sec, %d deferrals\n",
		n, st.Runs, *lines, *stages, *workers, elapsed, rate, st.Deferrals)

	if *traceOut != "" {
		tr, ok := e.StopTrace()
		if !ok {
			log.Fatal("StopTrace: no capture")
		}
		occ := tracing.LineOccupancy(tr, "pipestream")
		if len(occ) != *lines {
			log.Fatalf("trace shows %d lines, want %d", len(occ), *lines)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		if err := tracing.WriteLineTrace(w, tr, "pipestream"); err != nil {
			log.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipestream: line trace → %s (occupancy %v)\n", *traceOut, occ)
	}

	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		if err := metrics.WritePipeline(w, p); err != nil {
			log.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipestream: pipeline metrics → %s\n", *promOut)
	}

	if *latency {
		sums, ok := e.LatencyStats()
		if !ok || len(sums) == 0 {
			log.Fatal("latency histograms missing")
		}
		ts := sums[0].Exec
		if ts.Count != uint64(n) {
			log.Fatalf("latency histogram holds %d tokens, want %d", ts.Count, n)
		}
		fmt.Printf("pipestream: token e2e latency p50=%v p99=%v mean=%v\n",
			ts.Quantile(0.50), ts.Quantile(0.99), ts.Mean())
	}
}
