package abssem

import (
	"context"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
)

// analyzeDep is the dependency-driven abstract fixpoint engine: the same
// worklist as the sequential Analyze and the leveled analyzeParallel, run
// on sched.DepRounds so there is no per-round barrier. Each worklist
// entry becomes one task in sequential discovery order; workers expand
// tasks (sc.step, fold signatures, private footprint scratch) as soon as
// they are published, and the serial merge chain consumes expansions in
// strict task order, so an entry merges as soon as its predecessors in
// the weak partial order — exactly the entries the sequential engine
// would pop before it — have merged. Under the leveled scheduler a whole
// round waits for its slowest expansion before any merge of the next
// round's work can start; here the pipeline keeps draining.
//
// Determinism argument. All lattice bookkeeping — visits, dedup, joins,
// widening decisions, queue appends (emit), and the MaxStates truncation
// cut — happens in the merge chain, one goroutine at a time, in task
// order, which IS the sequential pop order (FIFO worklist: task i's
// emits are appended after everything emitted by tasks < i). The only
// input a worker computes is the expansion of a state snapshot, and the
// merge discards it whenever the snapshot was stale: states carry a
// change-sequence number published atomically with the configuration
// (aState.snap), and a join that grows a state bumps the number, so the
// merge re-expands serially — from exactly the value state the
// sequential engine would have popped — whenever stv.changed postdates
// the snapshot the worker loaded. Merged outcomes therefore equal
// expand(state-at-merge-time) for every entry, which is the sequential
// computation verbatim; stale recomputes only cost time (perf-only
// abs_stale_recomputes).
//
// Joins into a state with an outstanding (unmerged) task are
// copy-on-write (AConfig.joinCopy): a snapshot a worker may be reading
// is never mutated; the merge joins into a fresh copy and republishes.
// Joins into an idle state — every task merged, so no possible reader —
// run in place like the sequential engine's. The queue-length bookkeeping the
// sequential engine derives from len(queue) is reconstructed as
// total−i (tasks published minus tasks merged), which matches it
// exactly — including MaxFrontier, which the leveled engine can only
// approximate per round.
//
// Cancellation rides dep.RunContext: the merge chain stops before its
// next task once ctx fires, in-flight expansions drain, and the run
// falls through to collection exactly like the MaxStates truncation
// cut, so the partial Result is coherent for the merged prefix.
func analyzeDep(ctx context.Context, prog *lang.Program, opts Options) *Result {
	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(opts.Workers)
		defer pool.Close()
	}
	m := opts.Metrics
	defer m.Phase("abstract")()
	sc := newStepCtx(prog, opts)
	res := &Result{prog: prog, foot: sc.foot}

	init := initialConfig(prog, opts.Domain)
	states := map[ctrlSig]*aState{}
	sig0 := init.signature()
	st0 := &aState{cfg: init, queued: true}
	st0.snap.Store(&absSnap{cfg: init, seq: 0})
	states[sig0] = st0
	total := 1    // tasks published so far (seed + emits)
	mergeSeq := 0 // numbers the joins that changed a stored state

	dep := sched.NewDepRounds[*aState, aDepSlot](pool, sched.DepHooks{
		Ready:     func(n int) { m.MaxGauge(metrics.AbsDepReadyDepth, int64(n)) },
		MergeWait: func() { m.Inc(metrics.AbsDepMergeWaits) },
	})

	expand := func(i int, stv **aState, slot *aDepSlot) {
		s := (*stv).snap.Load()
		slot.seq = s.seq
		slot.ex = expandState(sc, s.cfg)
	}

	merge := func(i int, pstv **aState, slot *aDepSlot, emit func(*aState)) bool {
		stv := *pstv
		m.SetGauge(metrics.QueueLen, int64(total-i))
		m.MaxGauge(metrics.MaxFrontier, int64(total-i))
		stv.queued = false
		stv.visits++
		res.Visits++
		m.Inc(metrics.AbsVisits)

		if len(slot.ex.enabled) == 0 {
			return true // terminal; collected after the fixpoint
		}
		if stv.changed > slot.seq {
			// The state grew after the worker snapshotted it; recompute
			// its successors from the state the sequential engine would
			// have popped. enabled() is control-only, so the terminal
			// check above is unaffected by value growth.
			slot.ex = expandState(sc, stv.cfg)
			m.Inc(metrics.AbsStaleRecomputes)
		}
		e := &slot.ex
		for j := range e.enabled {
			sc.foot.merge(e.foots[j])
			for k, succ := range e.succs[j] {
				if succ.Procs == nil {
					// Error witness: no continuation.
					if succ.MayError {
						res.MayError = true
					}
					continue
				}
				if succ.MayError {
					res.MayError = true
				}
				nsig := e.sigs[j][k]
				cur, ok := states[nsig]
				if !ok {
					if len(states) >= opts.MaxStates {
						res.Truncated = true
						return false
					}
					cur = &aState{cfg: succ.deepCopy()}
					cur.snap.Store(&absSnap{cfg: cur.cfg, seq: mergeSeq})
					states[nsig] = cur
					cur.queued = true
					total++
					emit(cur)
					continue
				}
				widen := cur.visits >= opts.WidenAfter
				m.Inc(metrics.AbsJoins)
				if widen {
					m.Inc(metrics.AbsWidenings)
				}
				if !cur.queued {
					// Every task of this state has merged, and a task's
					// expansion completes before its merge, so no worker holds
					// the snapshot: join in place exactly as the sequential
					// engine does and republish. The re-emitted task's reader
					// is ordered after this mutation by the snap Store
					// followed by emit's mutex handoff.
					if cur.cfg.joinInto(succ, widen) {
						mergeSeq++
						cur.changed = mergeSeq
						cur.snap.Store(&absSnap{cfg: cur.cfg, seq: mergeSeq})
						cur.queued = true
						total++
						emit(cur)
					}
				} else if nc, changed := cur.cfg.joinCopy(succ, widen); changed {
					// An unmerged task of this state is outstanding — a worker
					// may be expanding the published snapshot right now — so
					// the join goes copy-on-write and the snapshot stays
					// immutable.
					mergeSeq++
					cur.changed = mergeSeq
					cur.cfg = nc
					cur.snap.Store(&absSnap{cfg: nc, seq: mergeSeq})
				}
			}
		}
		return true
	}

	if !dep.RunContext(ctx, []*aState{st0}, expand, nil, merge) && !res.Truncated {
		res.Cancelled = true
	}
	res.collect(states, m)
	return res
}

// aDepSlot is one task's expansion plus the change-sequence number of
// the snapshot it was computed from; the merge re-expands when the
// state's current change number is newer.
type aDepSlot struct {
	seq int
	ex  aExpansion
}
