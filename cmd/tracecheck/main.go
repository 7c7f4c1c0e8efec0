// Command tracecheck validates Chrome trace-event JSON files produced by
// the -trace flags of the benchmark drivers (and by the
// /debug/taskflow/trace/stop endpoint). It is the CI smoke gate behind
// `make trace`: it fails unless every file parses, carries the required
// Perfetto fields on every event, contains named task spans, matched flow
// arrows, and scheduler instants.
//
// With -flight it validates flight-recorder dumps (Executor.FlightSnapshot,
// the /debug/taskflow/flight endpoint) instead. A flight dump is whatever
// the continuously-armed wrapped rings still hold rather than a
// StartTrace/StopTrace window, so the structural promises differ:
// droppedEvents metadata must be present and numeric even when zero
// (wrapped rings legitimately report large drop counts, and absence must
// be distinguishable from zero), totalEvents must account for every
// rendered event, scheduler instants must be in non-decreasing timestamp
// order (the snapshot merges per-worker rings into one sorted stream),
// and the span/arrow minimums are relaxed — a ring that wrapped mid-task
// can lose the start of a span or the release side of an arrow.
//
// Usage:
//
//	tracecheck [-flight] trace1.json [trace2.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

type traceDoc struct {
	TraceEvents []map[string]any `json:"traceEvents"`
	OtherData   map[string]any   `json:"otherData"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	flight := flag.Bool("flight", false,
		"validate flight-recorder dumps: require droppedEvents/totalEvents accounting and merged-stream timestamp order, relax span/arrow minimums")
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: tracecheck [-flight] trace.json [more.json ...]")
	}
	for _, path := range flag.Args() {
		if err := check(path, *flight); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
	}
}

func check(path string, flight bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("not valid trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("empty traceEvents array")
	}

	var spans, flowStarts, flowEnds int
	instantKinds := map[string]bool{}
	flowIDs := map[float64]int{} // id -> starts minus finishes
	lastInstantTs := -1.0
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				return fmt.Errorf("event %d missing required field %q: %v", i, field, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "task" {
				spans++
				if dur, ok := ev["dur"].(float64); ok && dur < 0 {
					return fmt.Errorf("event %d: task span with negative duration %v", i, dur)
				}
			}
		case "i":
			if ev["s"] != "t" {
				return fmt.Errorf("event %d: instant without thread scope: %v", i, ev)
			}
			if ev["cat"] == "sched" {
				name := ev["name"].(string)
				instantKinds[name] = true
				// The exporter renders instants in source-event order; for a
				// flight dump that order is the merged, timestamp-sorted
				// stream of every per-worker ring, so any regression in the
				// snapshot merge shows up as out-of-order instants here.
				ts := ev["ts"].(float64)
				if flight && ts < lastInstantTs {
					return fmt.Errorf("event %d: instant ts %v before predecessor %v — flight merge not sorted",
						i, ts, lastInstantTs)
				}
				lastInstantTs = ts
				// steal_batch instants promise a batch size of at least 2
				// in args.arg: single-task steals emit only "steal".
				if name == "steal_batch" {
					args, ok := ev["args"].(map[string]any)
					if !ok {
						return fmt.Errorf("event %d: steal_batch without args: %v", i, ev)
					}
					size, ok := args["arg"].(float64)
					if !ok || size < 2 {
						return fmt.Errorf("event %d: steal_batch with batch size %v, want >= 2", i, args["arg"])
					}
				}
				// Injection instants carry the shard index and the task
				// count as separate args (the exporter unpacks the packed
				// wire arg).
				if name == "inject_push" || name == "inject_drain" {
					args, ok := ev["args"].(map[string]any)
					if !ok {
						return fmt.Errorf("event %d: %s without args: %v", i, name, ev)
					}
					if shard, ok := args["shard"].(float64); !ok || shard < 0 {
						return fmt.Errorf("event %d: %s with shard %v, want numeric >= 0", i, name, args["shard"])
					}
					if count, ok := args["arg"].(float64); !ok || count < 1 {
						return fmt.Errorf("event %d: %s with task count %v, want >= 1", i, name, args["arg"])
					}
				}
				// Park/unpark instants carry the worker's eventcount epoch
				// so a park can be paired with the unpark that resolved it.
				if name == "park" || name == "unpark" {
					args, ok := ev["args"].(map[string]any)
					if !ok {
						return fmt.Errorf("event %d: %s without args: %v", i, name, ev)
					}
					if _, ok := args["epoch"].(float64); !ok {
						return fmt.Errorf("event %d: %s without numeric epoch: %v", i, name, args["epoch"])
					}
				}
			}
		case "s":
			flowStarts++
			flowIDs[ev["id"].(float64)]++
		case "f":
			if ev["bp"] != "e" {
				return fmt.Errorf("event %d: flow finish without bp=e: %v", i, ev)
			}
			flowEnds++
			flowIDs[ev["id"].(float64)]--
		}
	}
	if flowStarts != flowEnds {
		return fmt.Errorf("unmatched flow arrows: %d starts, %d finishes", flowStarts, flowEnds)
	}
	for id, balance := range flowIDs {
		if balance != 0 {
			return fmt.Errorf("flow id %v has unbalanced start/finish", id)
		}
	}

	if flight {
		if err := checkFlightAccounting(&doc, spans, len(instantKinds), flowStarts); err != nil {
			return err
		}
	} else {
		if spans == 0 {
			return fmt.Errorf("no task spans (ph=X, cat=task)")
		}
		if flowStarts == 0 {
			return fmt.Errorf("no flow arrows")
		}
		if len(instantKinds) < 2 {
			return fmt.Errorf("only %d scheduler event kinds: %v", len(instantKinds), instantKinds)
		}
		if d, ok := doc.OtherData["droppedEvents"]; ok {
			if n, isNum := d.(float64); isNum && n > 0 {
				fmt.Fprintf(os.Stderr, "tracecheck: warning: %s dropped %v events\n", path, d)
			}
		}
	}

	mode := "ok"
	if flight {
		mode = "ok (flight)"
	}
	fmt.Printf("%s: %s — %d events, %d task spans, %d flow arrows, %d scheduler event kinds, dropped %v\n",
		path, mode, len(doc.TraceEvents), spans, flowStarts, len(instantKinds), doc.OtherData["droppedEvents"])
	return nil
}

// checkFlightAccounting enforces the flight-dump metadata contract: both
// counters present and numeric, and totalEvents at least covering every
// rendered event — each task span consumed an EvTaskStart/EvTaskEnd pair,
// each scheduler instant one source event, each flow arrow one
// EvDepRelease.
func checkFlightAccounting(doc *traceDoc, spans, instantKinds, arrows int) error {
	dropped, ok := doc.OtherData["droppedEvents"].(float64)
	if !ok {
		return fmt.Errorf("flight dump without numeric droppedEvents metadata: %v", doc.OtherData)
	}
	if dropped < 0 {
		return fmt.Errorf("flight dump with negative droppedEvents %v", dropped)
	}
	total, ok := doc.OtherData["totalEvents"].(float64)
	if !ok {
		return fmt.Errorf("flight dump without numeric totalEvents metadata: %v", doc.OtherData)
	}
	if instantKinds == 0 {
		return fmt.Errorf("flight dump with no scheduler instants — recorder not armed?")
	}
	if min := float64(2*spans + arrows); total < min {
		return fmt.Errorf("totalEvents %v cannot account for %d task spans and %d flow arrows (need >= %v)",
			total, spans, arrows, min)
	}
	return nil
}
