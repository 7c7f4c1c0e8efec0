package profile

import (
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

func TestSamplerObservesBusyWorkers(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	s := NewSampler(e, 200*time.Microsecond)
	s.Start()

	release := make(chan struct{})
	var started atomic.Int64
	for i := 0; i < 2; i++ {
		e.SubmitFunc(func(executor.Context) {
			started.Add(1)
			<-release
		})
	}
	for started.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the sampler see the busy state
	close(release)
	samples := s.Stop()

	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	if PeakBusy(samples) != 2 {
		t.Fatalf("PeakBusy = %d, want 2", PeakBusy(samples))
	}
	if MeanUtilization(samples, 2) <= 0 {
		t.Fatal("MeanUtilization = 0 while workers were busy")
	}
	// Sample timestamps must be monotonically non-decreasing.
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			t.Fatal("sample timestamps not monotone")
		}
	}
}

func TestSamplerIdleExecutor(t *testing.T) {
	e := executor.New(2)
	defer e.Shutdown()
	s := NewSampler(e, 200*time.Microsecond)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	samples := s.Stop()
	if PeakBusy(samples) != 0 {
		t.Fatalf("idle executor shows busy workers: %d", PeakBusy(samples))
	}
	if MeanUtilization(samples, 2) != 0 {
		t.Fatal("idle utilization non-zero")
	}
}

func TestMeanUtilizationEdgeCases(t *testing.T) {
	if MeanUtilization(nil, 4) != 0 {
		t.Fatal("nil samples")
	}
	if MeanUtilization([]Sample{{Busy: 2}}, 0) != 0 {
		t.Fatal("zero workers")
	}
	u := MeanUtilization([]Sample{{Busy: 1}, {Busy: 3}}, 4)
	if u != 0.5 {
		t.Fatalf("MeanUtilization = %v, want 0.5", u)
	}
}

func TestIntervalClamped(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	s := NewSampler(e, 0)
	if s.interval < 100*time.Microsecond {
		t.Fatal("interval not clamped")
	}
}
