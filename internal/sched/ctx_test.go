package sched

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func waitForGoroutineBaseline(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), want)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// A context cancelled before the round starts stops DoContext before any
// merge: the engines rely on "no merge after cancellation" to keep
// partial results coherent.
func TestDoContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		r := NewRounds[int](pool, Hooks{})
		merges := 0
		ok := r.DoContext(ctx, 64,
			func(i int, s *int) { *s = i },
			func(i int, s *int) bool { merges++; return true })
		pool.Close()
		if ok {
			t.Errorf("workers=%d: DoContext returned true under a cancelled context", workers)
		}
		if merges != 0 {
			t.Errorf("workers=%d: %d merges ran under a pre-cancelled context", workers, merges)
		}
	}
}

// Cancelling from inside a merge stops the round before the next merge,
// exactly like a false-returning merge (the truncation cut).
func TestDoContextCancelMidMerge(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		r := NewRounds[int](pool, Hooks{})
		ctx, cancel := context.WithCancel(context.Background())
		merges := 0
		ok := r.DoContext(ctx, 64,
			func(i int, s *int) { *s = i },
			func(i int, s *int) bool {
				merges++
				if merges == 10 {
					cancel()
				}
				return true
			})
		pool.Close()
		cancel()
		if ok {
			t.Errorf("workers=%d: DoContext returned true after mid-merge cancel", workers)
		}
		if merges != 10 {
			t.Errorf("workers=%d: merges=%d, want exactly 10 (stop before the next merge)", workers, merges)
		}
	}
}

// Close must be idempotent: the second call waits for worker exit
// instead of panicking on a double channel close.
func TestPoolDoubleClose(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	pool.Close()
	pool.Close()
	waitForGoroutineBaseline(t, before)

	// Concurrent double close: both calls must return, one of them
	// having done the shutdown.
	before = runtime.NumGoroutine()
	pool = NewPool(4)
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() { defer wg.Done(); pool.Close() }()
	}
	wg.Wait()
	waitForGoroutineBaseline(t, before)
}

// Runs issued after Close degrade to inline serial execution instead of
// panicking on a closed channel.
func TestRunAfterCloseInline(t *testing.T) {
	pool := NewPool(4)
	pool.Close()

	r := NewRounds[int](pool, Hooks{})
	sum := 0
	if !r.Do(16, func(i int, s *int) { *s = i }, func(i int, s *int) bool { sum += *s; return true }) {
		t.Fatal("Rounds.Do on a closed pool returned false")
	}
	if sum != 120 {
		t.Fatalf("Rounds.Do on a closed pool: sum=%d, want 120", sum)
	}
}

// Many goroutines hammering Rounds on one pool while it closes: every
// round still produces the full merge stream (degrading to inline once
// the pool is gone), and the workers exit cleanly.
func TestPoolCloseRacingRounds(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				r := NewRounds[int](pool, Hooks{})
				sum := 0
				r.Do(16, func(i int, s *int) { *s = i }, func(i int, s *int) bool { sum += *s; return true })
				if sum != 120 {
					t.Errorf("round racing Close: sum=%d, want 120", sum)
				}
			}
		}()
	}
	runtime.Gosched()
	pool.Close()
	wg.Wait()
	waitForGoroutineBaseline(t, before)
}
