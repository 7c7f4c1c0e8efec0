// Package tracing renders execution timelines in the Chrome trace-event
// JSON format (chrome://tracing, Perfetto), the role TFProf plays for
// Cpp-Taskflow: visualizing where every worker spends its time without
// modifying user code.
//
// Its input is one event stream: an executor.Trace copied out of the
// flight recorder's per-worker rings, either a StartTrace/StopTrace
// window or a FlightSnapshot. WriteTrace (chrome.go) renders it as named
// task spans, scheduler instants and dependency flow arrows;
// WriteLineTrace and LineOccupancy (pipeline.go) regroup pipeline cell
// spans by line.
package tracing

import (
	"fmt"

	"gotaskflow/internal/executor"
)

// SpanName returns the display name for a task's trace span: the task's
// own name, else the positional fallback used by the DOT dumps (p + hex
// emplacement index), else "task" for anonymous one-shots.
func SpanName(m executor.TaskMeta) string {
	if m.Name != "" {
		return m.Name
	}
	if m.ID != 0 {
		return fmt.Sprintf("p%#x", m.Idx)
	}
	return "task"
}
