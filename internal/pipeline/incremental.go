package pipeline

import (
	"context"
	"sync"

	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
)

// Incremental is a long-lived abstract-analysis session over a stream of
// program versions. It reuses exactly one thing: when the submitted
// program's mode-appropriate canonical hash (lang.HashProgram; the named
// variant under clan folding, the α-renamed one otherwise) equals the
// previous version's, the fixpoint is skipped — abssem.ReuseResult
// rebinds the previous result onto the new program, and the
// deterministic counter deltas captured during the run that produced it
// are replayed into the caller's registry, so even the metrics a client
// compares are bit-identical to a scratch run's. Any other edit runs
// from scratch.
//
// Bit-identity contract: for every program version, AnalyzeEdit's result
// — Result fields, invariants, footprints, and the deterministic counter
// set — equals a from-scratch abssem.Analyze of that version under the
// same options, at any worker count and under either scheduler. Enforced
// by the pipeline tests, the testdata/edits corpus (paperexp), and
// psasoak oracle 5's random edit sequences.
//
// The session serializes its calls internally; concurrent AnalyzeEdit
// calls are safe but run one at a time.
type Incremental struct {
	mu     sync.Mutex
	ro     RunOptions
	adjust func(*abssem.Options)

	hash   string
	named  bool
	res    *abssem.Result
	deltas []int64 // deterministic counter deltas of the run that produced res
}

// NewIncremental opens an incremental session under the shared options.
// Engine-specific knobs (domain, k-limits, clan folding) can be set via
// adjust exactly as with Analyze; nil keeps the defaults.
func NewIncremental(ro RunOptions, adjust func(*abssem.Options)) *Incremental {
	return &Incremental{ro: ro, adjust: adjust}
}

// Configure replaces the session's run options and returns the session
// for chaining. Intended for execution-only reconfiguration (workers,
// pool, scheduler, metrics), which never disturbs the fast path — the
// deterministic counters the session replays are identical at any worker
// count by the engines' contract. A result-relevant change (one that
// alters AbstractKey) should open a new session instead (core.Analyzer
// does exactly that).
func (inc *Incremental) Configure(ro RunOptions) *Incremental {
	inc.mu.Lock()
	inc.ro = ro
	inc.mu.Unlock()
	return inc
}

// AnalyzeEdit analyzes prog, reusing the whole previous result when the
// program is canonically equal to the last version and running from
// scratch otherwise.
func (inc *Incremental) AnalyzeEdit(prog *lang.Program) *abssem.Result {
	return inc.AnalyzeEditContext(context.Background(), prog)
}

// AnalyzeEditContext is AnalyzeEdit under a context. A cancelled run
// returns its partial result but never becomes the session's new
// baseline.
func (inc *Incremental) AnalyzeEditContext(ctx context.Context, prog *lang.Program) *abssem.Result {
	inc.mu.Lock()
	defer inc.mu.Unlock()

	ao := inc.ro.AbstractOptions()
	if inc.adjust != nil {
		inc.adjust(&ao)
	}
	// Clan folding groups cobegin arms by rendered body text, which sees
	// local NAMES — so only the named hash certifies "same analysis
	// input" under it. Everywhere else α-equivalence suffices.
	named := ao.Normalized().ClanFold
	h := lang.HashProgram(prog).ProgramHash(named)
	m := ao.Metrics

	if inc.res != nil && inc.named == named && inc.hash == h {
		// Program hash unchanged: the fixpoint would recompute the exact
		// result it produced last time (the hash covers every semantic
		// input of the analysis — bodies, globals, function list — in the
		// mode the options need). Rebind it and replay the deterministic
		// counters the skipped run would have emitted.
		m.Inc(metrics.AnalysisCacheHit)
		if m != nil {
			metrics.EachCounter(func(c metrics.Counter) {
				if !c.PerfOnly() && inc.deltas[c] != 0 {
					m.Add(c, inc.deltas[c])
				}
			})
		}
		inc.res = abssem.ReuseResult(inc.res, prog)
		return inc.res
	}

	m.Inc(metrics.AnalysisCacheMiss)
	// Capture the run's deterministic counter deltas so a later no-op
	// edit can replay them. With no caller registry, a private one
	// records the run (the engines' deterministic counters are identical
	// at any worker count, so the captured deltas are portable across the
	// session's lifetime).
	if m == nil {
		m = metrics.New()
		ao.Metrics = m
	}
	var before []int64
	metrics.EachCounter(func(c metrics.Counter) {
		before = append(before, m.Get(c))
	})
	res := abssem.AnalyzeContext(ctx, prog, ao)
	if res.Cancelled {
		// Timing-dependent cut: neither the result nor its counters may
		// seed future fast paths.
		return res
	}
	deltas := make([]int64, len(before))
	metrics.EachCounter(func(c metrics.Counter) {
		deltas[c] = m.Get(c) - before[c]
	})
	inc.hash, inc.named, inc.res, inc.deltas = h, named, res, deltas
	return res
}
