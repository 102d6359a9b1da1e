package explore

import (
	"context"

	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// exploreParallel is the multi-worker variant of ExploreFrom: a
// level-synchronized breadth-first generation of the configuration space
// on the shared deterministic runtime (internal/sched). Each BFS level's
// frontier is split across workers, which do the expensive work
// (enabledness, stubborn sets, firing, canonical encoding or
// fingerprinting) in parallel; configuration identity is then
// deduplicated in the serial per-level merge, so the state count,
// terminal set, edge count, discovery parents, AND frontier ordering are
// EXACTLY those of the sequential explorer (the paper's numbers do not
// depend on how many cores generated them — verified by differential
// tests).
//
// Scheduling within a level is sched's strided-grain + CAS-claim +
// steal-cursor loop: a level whose expansion cost is skewed — one deep
// coarsened run amid hundreds of cheap terminals — no longer serializes
// on the one worker whose static chunk happened to contain the expensive
// configurations. Which worker computes a grain never matters for the
// output: results land in position-indexed slots (sched.Rounds) that
// only the serial merge reads. The worker goroutines are persistent for
// the whole exploration (and beyond, when Options.Pool is shared), so
// deep explorations no longer pay a spawn per level.
//
// Instrumentation (Sink callbacks, metrics, collected events, graph
// bookkeeping) is serialized per level in deterministic frontier order,
// so sinks and the metrics registry see the same stream as a sequential
// run, regardless of worker count.
// Cancellation rides the sched runtime: rounds.DoContext stops the
// serial merge before its next entry once ctx fires (and skips not-yet-
// started expansions), so a cancelled run returns a partial Result with
// the same per-entry coherence as a MaxConfigs cut — every artifact
// describes exactly the merged prefix, and no worker or callback runs
// after return.
func exploreParallel(ctx context.Context, c0 *sem.Config, opts Options, workers int) *Result {
	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(workers)
		defer pool.Close()
	}
	// Metrics discipline: every counter that must match the sequential
	// explorer exactly (state/edge/dedup, level stats, stubborn
	// decisions, coarsened steps) is recorded in the serial merge loop
	// below — workers only compute and report; they never touch the
	// registry. In particular fire() returns its absorbed-step count so
	// speculative work past a truncation cut is not counted. The only
	// worker-dependent counters are the perf-only ones (steals, encoder
	// pool traffic), routed through the sched steal hook.
	m := opts.Metrics
	defer m.Phase("explore")()
	var sm *sem.Summaries
	if opts.Reduction == Stubborn {
		sm = sem.NewSummaries(c0.Prog)
	}
	ky := newKeyer(opts)
	// Visited set, consulted only in the serial merge: dedup order (and
	// therefore discovery-parent attribution and next-frontier order)
	// must match the sequential explorer exactly, so freshness cannot be
	// decided by racing workers.
	vis := newVisited(ky.exact)
	defer recordVisitedStats(m, vis)()

	res := &Result{Terminals: map[sem.Key]*sem.Config{}}
	if opts.KeepGraph {
		res.Graph = &Graph{Nodes: map[sem.Key]*Node{}}
	}

	frontier := make([]item, 0, 64)
	if ky.exact {
		k0 := ky.keyOf(c0)
		vis.addKey(k0)
		frontier = append(frontier, item{c0, k0})
		if res.Graph != nil {
			res.Graph.Nodes[k0] = &Node{Key: k0, Index: 0}
			res.Graph.Order = append(res.Graph.Order, k0)
		}
	} else {
		vis.addFP(ky.fpOf(c0))
		frontier = append(frontier, item{cfg: c0})
	}
	res.States = 1
	m.Inc(metrics.StatesUnique)

	rounds := sched.NewRounds[expansion](pool, sched.Hooks{
		Steals: func(s int64) { m.Add(metrics.FrontierSteals, s) },
	})

	var next []item
	expand1 := func(i int, e *expansion) {
		cur := frontier[i]
		e.enabled = cur.cfg.Enabled()
		if len(e.enabled) == 0 {
			e.terminal = true
			return
		}
		expand := e.enabled
		if opts.Reduction == Stubborn {
			expand = stubbornSet(cur.cfg, e.enabled, sm)
		}
		absorbLateCritical := opts.Reduction == Full
		for _, pi := range expand {
			step, absorbed := fire(cur.cfg, pi, opts, absorbLateCritical)
			e.steps = append(e.steps, step)
			if ky.exact {
				e.keys = append(e.keys, ky.keyOf(step.Config))
			} else {
				e.fps = append(e.fps, ky.fpOf(step.Config))
			}
			e.absorbed = append(e.absorbed, absorbed)
		}
	}

	// Deterministic sequential merge of one frontier entry's results;
	// returns false on the MaxConfigs truncation cut.
	merge1 := func(i int, e *expansion) bool {
		// The sequential queue holds the level's unmerged entries plus the
		// next level discovered so far when it pops entry i; tracking that
		// length here keeps MaxFrontier identical to the sequential run's.
		if size := len(frontier) - i + len(next); size > res.MaxFrontier {
			res.MaxFrontier = size
		}
		cur := frontier[i]
		if e.terminal {
			tk := cur.key
			if !ky.exact {
				tk = ky.keyOf(cur.cfg)
			}
			res.Terminals[tk] = cur.cfg
			m.Inc(metrics.TerminalsSeen)
			if cur.cfg.Err != "" {
				res.Errors = append(res.Errors, cur.cfg)
				m.Inc(metrics.ErrorsSeen)
			}
			if res.Graph != nil {
				n := res.Graph.Nodes[cur.key]
				n.Terminal = true
				n.Err = cur.cfg.Err
			}
			return true
		}
		if opts.Sink != nil {
			reportCoEnabled(cur.cfg, e.enabled, opts.Sink)
		}
		if opts.Reduction == Stubborn {
			countStubbornDecision(m, len(e.steps), len(e.enabled))
		}
		for j, step := range e.steps {
			res.Edges++
			m.Inc(metrics.TransitionsFired)
			m.Inc(metrics.StatesGenerated)
			m.Add(metrics.CoarsenedSteps, int64(e.absorbed[j]))
			if opts.Sink != nil {
				opts.Sink.Transition(step)
			}
			if opts.CollectEvents {
				res.Events = append(res.Events, step.Events...)
				res.Allocs = append(res.Allocs, step.Allocs...)
			}
			var k sem.Key
			var fresh bool
			if ky.exact {
				k = e.keys[j]
				fresh = vis.addKey(k)
			} else {
				fresh = vis.addFP(e.fps[j])
			}
			if res.Graph != nil {
				res.Graph.Nodes[cur.key].Out = append(res.Graph.Nodes[cur.key].Out,
					Edge{To: k, Proc: step.Proc, Stmt: describeStep(step)})
			}
			if fresh {
				res.States++
				m.Inc(metrics.StatesUnique)
				if res.Graph != nil {
					res.Graph.Nodes[k] = &Node{
						Key: k, Index: len(res.Graph.Order),
						Parent: cur.key, ParentProc: step.Proc, ParentStmt: describeStep(step),
					}
					res.Graph.Order = append(res.Graph.Order, k)
				}
				if res.States >= opts.MaxConfigs {
					res.Truncated = true
					return false
				}
				next = append(next, item{step.Config, k})
			} else {
				m.Inc(metrics.DedupHits)
			}
		}
		return true
	}

	for len(frontier) > 0 {
		m.BeginLevel(len(frontier))
		// next must be a fresh slice each level: the merge appends to it
		// while later frontier entries are still unread, so it can never
		// share the frontier's backing array.
		next = nil
		ok := rounds.DoContext(ctx, len(frontier), expand1, merge1)
		m.EndLevel()
		if !ok {
			// Either the MaxConfigs cut (merge1 returned false after
			// setting Truncated) or ctx cancellation stopped the round.
			if !res.Truncated {
				res.Cancelled = true
			}
			return res
		}
		frontier = next
	}
	return res
}

// expansion is one frontier entry's precomputed level results: the
// enabled set, the fired steps with their state identities (keys in
// exact mode, fingerprints otherwise), and the coarsened micro-step
// counts — everything the serial merge needs to replay the sequential
// explorer's bookkeeping.
type expansion struct {
	terminal bool
	enabled  []int
	steps    []*sem.StepResult
	keys     []sem.Key         // exact mode
	fps      []sem.Fingerprint // fingerprint mode
	absorbed []int             // coarsened micro-steps per fired transition
}
