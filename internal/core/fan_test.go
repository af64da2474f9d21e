package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanCtxRunsAllWithoutCancellation pins the degenerate case: an
// un-cancelled context dispatches every job exactly once and returns nil.
func TestFanCtxRunsAllWithoutCancellation(t *testing.T) {
	const n = 100
	var done [n]atomic.Int32
	err := FanCtx(context.Background(), n, 4, func() func(int) {
		return func(i int) { done[i].Add(1) }
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if got := done[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

// TestFanCtxStopsDispatchOnCancel cancels mid-flight and requires the
// fan-out to stop dispatching, report the context error, and leave the
// tail of the index space untouched.
func TestFanCtxStopsDispatchOnCancel(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	err := FanCtx(ctx, n, 2, func() func(int) {
		return func(i int) {
			if ran.Add(1) == 2 {
				cancel()
				close(release)
			}
			<-release
		}
	})
	if err != context.Canceled {
		t.Fatalf("FanCtx returned %v, want context.Canceled", err)
	}
	// Two in-flight jobs plus at most the ones already queued before the
	// cancellation won; nowhere near all thousand.
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d jobs ran after cancellation, expected dispatch to stop early", got)
	}
}

// TestFanCtxExpiredDeadline pins the already-dead case: a context that
// expired before the call dispatches nothing (workers start and drain an
// instantly closed queue).
func TestFanCtxExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var ran atomic.Int32
	err := FanCtx(ctx, 50, 4, func() func(int) {
		return func(int) { ran.Add(1) }
	})
	if err != context.DeadlineExceeded {
		t.Fatalf("FanCtx returned %v, want context.DeadlineExceeded", err)
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under an expired deadline", got)
	}
}
