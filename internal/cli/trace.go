package cli

import (
	"fmt"
	"os"

	"gotaskflow/internal/executor"
	"gotaskflow/internal/tracing"
)

// StartTraceCapture opens a trace window on e for a driver's -trace flag.
// The returned stop function closes the window and writes the Chrome
// trace-event JSON to path (load it in https://ui.perfetto.dev or
// chrome://tracing). The executor must have been built with
// executor.WithFlightRecorder; a second call of stop reports an error.
func StartTraceCapture(e *executor.Executor, path string) (stop func() error, err error) {
	if !e.StartTrace() {
		return nil, fmt.Errorf("cli: trace window could not open (executor built without a flight recorder, or a window is already open)")
	}
	return func() error {
		tr, ok := e.StopTrace()
		if !ok {
			return fmt.Errorf("cli: no open trace window to stop")
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tracing.WriteTrace(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		msg := fmt.Sprintf("wrote %d trace events to %s", len(tr.Events), path)
		if tr.Dropped > 0 {
			msg += fmt.Sprintf(" (%d dropped; raise the flight recorder capacity)", tr.Dropped)
		}
		fmt.Fprintln(os.Stderr, msg)
		return nil
	}, nil
}
