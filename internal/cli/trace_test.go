package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gotaskflow/internal/executor"
)

// TestStartTraceCaptureStopTwice: the stop function writes the window
// once and reports a second call as an error instead of re-reading it.
func TestStartTraceCaptureStopTwice(t *testing.T) {
	e := executor.New(1, executor.WithFlightRecorder(64))
	defer e.Shutdown()
	path := filepath.Join(t.TempDir(), "trace.json")
	stop, err := StartTraceCapture(e, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartTraceCapture(e, path); err == nil {
		t.Fatal("a second capture opened while one is open")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatalf("trace file is not JSON: %q", data)
	}
	if err := stop(); err == nil {
		t.Fatal("second stop returned nil")
	}
}

func TestStartTraceCaptureNeedsRecorder(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	if _, err := StartTraceCapture(e, filepath.Join(t.TempDir(), "trace.json")); err == nil {
		t.Fatal("capture opened without a flight recorder")
	}
}
