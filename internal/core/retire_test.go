package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gotaskflow/internal/executor"
)

// TestDispatchedGraphsCollectable dispatches fifty 200-node graphs one
// after another on one shared single-worker executor, dropping each after
// WaitForAll, and checks that the executor keeps none of them reachable
// but the last (a worker may still hold a reference from its final task).
// Each graph's task bodies share one payload, whose finalizer records that
// none of the graph's nodes is reachable any more.
func TestDispatchedGraphsCollectable(t *testing.T) {
	e := executor.New(1)
	defer e.Shutdown()
	const graphs, width = 50, 198
	var freed [graphs]atomic.Bool
	for i := range graphs {
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { freed[i].Store(true) })
		tf := NewShared(e)
		src, sink := tf.Placeholder(), tf.Placeholder()
		for range width {
			tf.Emplace1(func() { runtime.KeepAlive(payload) }).Succeed(src).Precede(sink)
		}
		if err := tf.WaitForAll(); err != nil {
			t.Fatal(err)
		}
	}
	retired := func() int {
		n := 0
		for i := range freed[:graphs-1] {
			if freed[i].Load() {
				n++
			}
		}
		return n
	}
	// Finalizers run on their own goroutine after the collection that
	// finds the payload unreachable, so poll a bounded number of cycles.
	for try := 0; try < 100 && retired() < graphs-1; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	for i := range freed[:graphs-1] {
		if !freed[i].Load() {
			t.Fatalf("graph %d of %d is still reachable after WaitForAll", i, graphs)
		}
	}
}
