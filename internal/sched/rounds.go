package sched

import "context"

// Hooks are the optional observability callbacks of a Rounds runtime.
// Every field may be nil. None of them may influence results: they exist
// so engines can feed their own metric labels (frontier_steals vs
// abs_steals, round-width gauges, phase timers) without the runtime
// knowing about the metrics registry.
type Hooks struct {
	// Width receives each round's fan-out width before expansion starts.
	Width func(n int)
	// Steals receives the round's stolen-grain count after the fan-out
	// completes (0 for rounds that ran inline). Steal counts depend on
	// scheduling, so callers must route them to perf-only counters
	// (metrics.Counter.PerfOnly) — never into counters that determinism
	// comparisons read.
	Steals func(n int64)
	// ExpandPhase and MergePhase, when set, bracket the parallel fan-out
	// and the serial merge of each round: called at phase start, and the
	// function they return at phase end (the metrics.Registry.Phase
	// shape). MergePhase's stop runs even when the merge stops early.
	ExpandPhase func() func()
	MergePhase  func() func()
}

// Rounds drives the leveled fan-out/serial-merge protocol over slots of
// type T. Each round, expansion results land in a position-indexed slot
// array written only by workers (slot i by the worker that drew index
// i), then a serial merge reads the slots in index order. All
// order-sensitive engine state — dedup, joins, queue appends, truncation
// cuts — belongs in the merge, which is the protocol's determinism
// guarantee: the merge sees exactly the stream a sequential run (one
// entry per round) would produce, whatever the worker count.
//
// The slot array is reused (and zeroed) across rounds, so per-round slot
// allocation is paid once per high-water mark, not once per round. A
// Rounds value is not safe for concurrent Do calls.
type Rounds[T any] struct {
	pool  *Pool
	hooks Hooks
	slots []T
}

// NewRounds returns a Rounds runtime over the pool with the given hooks.
// The engines build one only for parallel runs, always on a real pool
// (a one-worker pool runs every round inline); their sequential runs
// merge one-entry rounds without a Rounds. A nil pool also runs inline.
func NewRounds[T any](pool *Pool, hooks Hooks) *Rounds[T] {
	return &Rounds[T]{pool: pool, hooks: hooks}
}

// Do runs one round of width n: expand(i, slot) fills slot i in
// parallel for every i in [0, n), from zeroed slots; then merge(i, slot)
// consumes the slots serially in index order. A merge returning false
// stops the replay immediately (the engines' truncation cut) and Do
// returns false; otherwise Do returns true once every slot is merged.
//
// expand must confine itself to its slot and data no other expansion
// writes; merge is the only callback that may touch shared engine state.
func (r *Rounds[T]) Do(n int, expand func(i int, slot *T), merge func(i int, slot *T) bool) bool {
	return r.DoContext(context.Background(), n, expand, merge)
}

// DoContext is Do with cooperative cancellation: once ctx is cancelled,
// workers skip the expansion of every grain they have not started yet
// (leaving those slots zeroed) and the merge replay stops before its
// next entry, so DoContext returns false — the same early-stop shape as
// a merge returning false — without ever merging a slot whose expansion
// was skipped (cancellation is monotone: a skipped expansion implies
// the pre-merge check sees the same cancelled context). In-flight
// expansions run to completion on their current item, which bounds the
// cancellation latency by one item's work; no callback runs after
// DoContext returns.
func (r *Rounds[T]) DoContext(ctx context.Context, n int, expand func(i int, slot *T), merge func(i int, slot *T) bool) bool {
	done := ctx.Done()
	if r.hooks.Width != nil {
		r.hooks.Width(n)
	}
	if cap(r.slots) < n {
		r.slots = make([]T, n)
	} else {
		r.slots = r.slots[:n]
		clear(r.slots)
	}
	stopExpand := func() {}
	if r.hooks.ExpandPhase != nil {
		stopExpand = r.hooks.ExpandPhase()
	}
	expand1 := expand
	if done != nil {
		expand1 = func(i int, slot *T) {
			select {
			case <-done:
				// Cancelled: leave the slot zeroed. The merge loop below
				// re-checks ctx before every merge, so this slot is never
				// consumed.
			default:
				expand(i, slot)
			}
		}
	}
	steals := r.pool.Run(n, func(i int) { expand1(i, &r.slots[i]) })
	if r.hooks.Steals != nil {
		r.hooks.Steals(steals)
	}
	stopExpand()

	stopMerge := func() {}
	if r.hooks.MergePhase != nil {
		stopMerge = r.hooks.MergePhase()
	}
	ok := true
	for i := 0; i < n; i++ {
		if done != nil {
			select {
			case <-done:
				ok = false
			default:
			}
			if !ok {
				break
			}
		}
		if !merge(i, &r.slots[i]) {
			ok = false
			break
		}
	}
	stopMerge()
	return ok
}
