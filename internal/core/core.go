// Package core is the public face of the framework: parse a cobegin
// program once, then run any combination of the paper's machinery on it —
// concrete state-space exploration with stubborn-set reduction and
// virtual coarsening (§2), abstract interpretation over a choice of
// domains with configuration and clan folding (§4, §6), and the derived
// analyses and applications: side effects, data dependences, object
// lifetimes (§5), call parallelization, memory placement, and
// optimization safety (§7).
//
// Typical use:
//
//	a, err := core.Parse(src)
//	res := a.Explore(core.ExploreOptions{Reduction: core.Stubborn})
//	cl := a.Collect()                    // exploration + instrumentation
//	deps := cl.Dependences("s1", "s2")   // §5.2
//	sched := a.Parallelize("s1", "s2")   // §7
package core

import (
	"context"
	"fmt"
	"io"
	"os"

	"psa/internal/abssem"
	"psa/internal/analysis"
	"psa/internal/apps"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// Re-exported option/result types, so clients import only core.
type (
	// ExploreOptions configures concrete state-space exploration.
	ExploreOptions = explore.Options
	// Reduction selects full or stubborn-set concrete expansion.
	Reduction = explore.Reduction
	// ExploreResult is a concrete exploration summary.
	ExploreResult = explore.Result
	// AbstractOptions configures the abstract interpreter.
	AbstractOptions = abssem.Options
	// AbstractResult is an abstract interpretation summary.
	AbstractResult = abssem.Result
	// Collector accumulates the instrumentation behind the §5 analyses.
	Collector = analysis.Collector
	// Schedule is a parallelization verdict.
	Schedule = apps.Schedule
	// DelayPlan is a Shasha–Snir delay analysis result.
	DelayPlan = apps.DelayPlan
	// PlacementReport is the §5.3 memory-placement report.
	PlacementReport = apps.PlacementReport
	// Oracle answers optimization-safety queries.
	Oracle = apps.Oracle
	// Verdict is an oracle answer.
	Verdict = apps.Verdict
	// Program is a parsed, resolved program.
	Program = lang.Program
	// RunOptions is the unified analysis-run configuration shared by every
	// layer of the stack (see internal/pipeline).
	RunOptions = pipeline.RunOptions
	// NamedSink pairs an extra exploration consumer with the metrics phase
	// its callback time reports under.
	NamedSink = pipeline.NamedSink
)

// Reduction strategies for Explore.
const (
	Full     = explore.Full
	Stubborn = explore.Stubborn
)

// Analyzer owns one parsed program, one RunOptions configuration, and
// caches of the derived artifacts — collectors and abstract results keyed
// by the options that produced them, so reconfiguring an analyzer never
// hands back results computed under different settings (the historical
// single-slot cache silently did).
//
// The zero configuration is sequential with each engine's defaults;
// Configure threads reductions, worker counts, caps, and metrics through
// every subsequent run. An analyzer configured for parallel runs lazily
// creates one shared sched.Pool for all of them; call Close to release
// it (a no-op otherwise).
type Analyzer struct {
	Prog *lang.Program

	opts    pipeline.RunOptions
	ownPool *sched.Pool
	ctx     context.Context

	collectors map[string]*analysis.Collector
	abstracts  map[string]*abssem.Result

	// inc is the analyzer's incremental abstract session (AnalyzeEdit);
	// incKey is the abstract options key it was built for. An options
	// change opens a fresh session.
	inc    *pipeline.Incremental
	incKey string
}

// Parse builds an Analyzer from source text.
func Parse(src string) (*Analyzer, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Analyzer{Prog: prog}, nil
}

// ParseFile builds an Analyzer from a file.
func ParseFile(path string) (*Analyzer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// FromProgram wraps an already-built program (e.g. from package
// workloads).
func FromProgram(p *lang.Program) *Analyzer { return &Analyzer{Prog: p} }

// Format renders the program back to source.
func (a *Analyzer) Format() string { return lang.Format(a.Prog) }

// Configure installs the analyzer's run configuration and returns the
// analyzer for chaining. Previously cached results are kept — they remain
// valid for the options that produced them and are still returned when a
// later Configure restores equivalent options.
func (a *Analyzer) Configure(ro RunOptions) *Analyzer {
	a.opts = ro
	return a
}

// Options returns the analyzer's current run configuration.
func (a *Analyzer) Options() RunOptions { return a.opts }

// WithContext installs the context every subsequent run of this analyzer
// executes under, and returns the analyzer for chaining. Cancelling the
// context stops in-flight explorations and fixpoints at their next merge
// boundary; the run returns a coherent partial result with Cancelled set
// (same cut shape as the MaxConfigs/MaxStates truncation), and cancelled
// results never enter the analyzer's options-keyed caches. A nil context
// restores the default (never cancelled).
func (a *Analyzer) WithContext(ctx context.Context) *Analyzer {
	a.ctx = ctx
	return a
}

// context returns the analyzer's run context, defaulting to Background.
func (a *Analyzer) context() context.Context {
	if a.ctx != nil {
		return a.ctx
	}
	return context.Background()
}

// Close releases the worker pool the analyzer created for its own
// parallel runs. It never closes a caller-supplied RunOptions.Pool, and
// is a no-op on sequential analyzers. The analyzer remains usable; a
// later parallel run recreates the pool.
func (a *Analyzer) Close() {
	if a.ownPool != nil {
		a.ownPool.Close()
		a.ownPool = nil
	}
}

// pool returns the pool every run of this analyzer executes on: the
// caller-supplied one if configured, otherwise a lazily created analyzer-
// owned pool sized by Workers (nil for sequential configurations).
func (a *Analyzer) pool() *sched.Pool {
	if a.opts.Pool != nil {
		return a.opts.Pool
	}
	if a.ownPool == nil {
		a.ownPool = sched.ForWorkers(a.opts.Workers)
	}
	return a.ownPool
}

// runOptions is the configured options with the shared pool filled in.
func (a *Analyzer) runOptions() RunOptions {
	ro := a.opts
	ro.Pool = a.pool()
	return ro
}

// Explore generates the reachable configuration space under opts. A
// request at the analyzer's configured width that brings no pool of its
// own executes on the analyzer's shared pool.
func (a *Analyzer) Explore(opts ExploreOptions) *ExploreResult {
	if opts.Pool == nil && opts.Workers == a.opts.Workers {
		opts.Pool = a.pool()
	}
	return explore.ExploreContext(a.context(), a.Prog, opts)
}

// Collect runs one instrumented exploration under the configured options
// and caches the resulting collector per options key; subsequent analysis
// queries — Dependences, Anomalies, DeallocationLists, Placements, and
// the rest — share that single traversal. Extra sinks ride along in the
// same traversal through the pipeline's MultiSink, observing exactly the
// stream a dedicated run would deliver them; a cached collector is then
// reused without being re-fed.
func (a *Analyzer) Collect(extra ...explore.Sink) *Collector {
	key := a.opts.Key()
	cl, hit := a.collectors[key]
	var sinks []pipeline.NamedSink
	if !hit {
		cl = analysis.NewCollector(a.Prog)
		sinks = append(sinks, pipeline.NamedSink{Name: "collector", Sink: cl})
	}
	for i, s := range extra {
		sinks = append(sinks, pipeline.NamedSink{Name: fmt.Sprintf("extra%d", i), Sink: s})
	}
	if hit {
		a.opts.Metrics.Inc(metrics.AnalysisCacheHit)
		if len(sinks) == 0 {
			return cl
		}
	} else {
		a.opts.Metrics.Inc(metrics.AnalysisCacheMiss)
	}
	res := pipeline.ExploreContext(a.context(), a.Prog, a.runOptions(), sinks...)
	if !hit && !res.Cancelled {
		// A cancelled traversal fed the collector a timing-dependent
		// prefix of the stream; never cache it, so the next query reruns.
		if a.collectors == nil {
			a.collectors = make(map[string]*analysis.Collector)
		}
		a.collectors[key] = cl
	}
	return cl
}

// Abstract runs the abstract interpreter under the configured options
// (domain defaults, worker count/pool/metrics from Configure) and caches
// the result; use AbstractWith for engine-specific knobs.
func (a *Analyzer) Abstract() *AbstractResult {
	return a.AbstractWith(a.opts.AbstractOptions())
}

// AbstractWith runs the abstract interpreter with explicit options
// (domain, k-limit, clan folding), caching results per normalized
// options key — AbstractWith(defaults) and Abstract() share one cache
// entry, and differing options never collide. Zero-valued execution
// fields (Workers, Pool, Metrics) inherit the analyzer's configuration;
// they never affect results, only how the run executes.
func (a *Analyzer) AbstractWith(opts AbstractOptions) *AbstractResult {
	key := pipeline.AbstractKey(opts)
	if res, ok := a.abstracts[key]; ok {
		a.opts.Metrics.Inc(metrics.AnalysisCacheHit)
		return res
	}
	a.opts.Metrics.Inc(metrics.AnalysisCacheMiss)
	if opts.Workers == 0 {
		opts.Workers = a.opts.Workers
	}
	if opts.Pool == nil && opts.Workers == a.opts.Workers {
		opts.Pool = a.pool()
	}
	if opts.Metrics == nil {
		opts.Metrics = a.opts.Metrics
	}
	res := abssem.AnalyzeContext(a.context(), a.Prog, opts)
	if !res.Cancelled {
		// Cancelled fixpoints carry a timing-dependent cut; caching one
		// would serve a partial result to every later query.
		if a.abstracts == nil {
			a.abstracts = make(map[string]*abssem.Result)
		}
		a.abstracts[key] = res
	}
	return res
}

// AnalyzeEdit re-targets the analyzer at an edited version of its
// program and returns the abstract result for the new version. An
// α-equivalent edit (e.g. a local rename, without clan folding) reuses
// the previous result without re-running the fixpoint; any other edit
// runs from scratch (see pipeline.Incremental). The result is
// bit-identical to a from-scratch analysis of newProg under the current
// configuration.
//
// The analyzer's program becomes newProg: subsequent Collect/Abstract/
// application queries answer for the new version (their per-program
// caches are reset; the returned result seeds the abstract cache).
func (a *Analyzer) AnalyzeEdit(newProg *lang.Program) *AbstractResult {
	key := pipeline.AbstractKey(a.opts.AbstractOptions())
	if a.inc == nil || a.incKey != key {
		a.inc = pipeline.NewIncremental(a.runOptions(), nil)
		a.incKey = key
	} else {
		// Same result-relevant options: refresh the execution-only fields
		// (pool, metrics) the session threads into its runs.
		a.inc.Configure(a.runOptions())
	}
	res := a.inc.AnalyzeEditContext(a.context(), newProg)
	a.Prog = newProg
	a.collectors = nil
	a.abstracts = nil
	if !res.Cancelled {
		a.abstracts = map[string]*abssem.Result{key: res}
	}
	return res
}

// Dependences computes the §5.2 data dependences among labeled
// statements.
func (a *Analyzer) Dependences(labels ...string) []analysis.Dep {
	return a.Collect().Dependences(labels...)
}

// SideEffects returns the §5.1 side-effect summary of the named function.
func (a *Analyzer) SideEffects(fn string) ([]analysis.FootprintEntry, error) {
	f := a.Prog.Func(fn)
	if f == nil {
		return nil, fmt.Errorf("core: no function named %q", fn)
	}
	return a.Collect().SideEffects(f), nil
}

// Parallelize computes the finest legal parallel schedule of the labeled
// statements (§7, Example 15).
func (a *Analyzer) Parallelize(labels ...string) *Schedule {
	return apps.Parallelize(a.Collect(), labels...)
}

// MinimalDelays runs the Shasha–Snir critical-cycle analysis [SS88] on a
// parallel program given as arms of labeled statements, reporting which
// program arcs must be enforced with delays.
func (a *Analyzer) MinimalDelays(arms [][]string) *apps.EnforcementPlan {
	return apps.MinimalDelays(a.Collect(), arms)
}

// PlanDelays runs the Shasha–Snir delay analysis for a proposed
// segmentation.
func (a *Analyzer) PlanDelays(segments [][]string) *DelayPlan {
	return apps.PlanDelays(a.Collect(), segments)
}

// Placements reports memory-hierarchy placement for labeled allocations
// (§5.3, §7).
func (a *Analyzer) Placements(labels ...string) *PlacementReport {
	return apps.Placements(a.Collect(), labels...)
}

// NewOracle builds the optimization-safety oracle over the cached
// abstract interpretation.
func (a *Analyzer) NewOracle() *Oracle {
	return apps.NewOracle(a.Prog, a.Abstract())
}

// Anomalies returns the observed access anomalies (co-enabled conflicting
// accesses), the debugging-oriented output surveyed in [MH89].
func (a *Analyzer) Anomalies() []*analysis.Anomaly {
	return a.Collect().Anomalies()
}

// DeallocationLists associates each function with the allocation sites
// whose objects can be reclaimed at its exit ([Har89], §5.3).
func (a *Analyzer) DeallocationLists() []apps.DeallocationList {
	return apps.DeallocationLists(a.Collect())
}

// MayHappenInParallel reports whether the two labeled statements can run
// concurrently.
func (a *Analyzer) MayHappenInParallel(labelA, labelB string) bool {
	return a.Collect().MayHappenInParallel(labelA, labelB)
}

// WriteConflictDOT renders the statement-level conflict graph over the
// labeled statements in Graphviz format [MPC90].
func (a *Analyzer) WriteConflictDOT(w io.Writer, labels ...string) error {
	return a.Collect().WriteConflictDOT(w, labels...)
}

// Restructure applies a parallel schedule to the program (the labeled
// statements become cobegin arms) and returns the transformed analyzer.
func (a *Analyzer) Restructure(sched *Schedule) (*Analyzer, error) {
	out, err := apps.ApplySchedule(a.Prog, sched)
	if err != nil {
		return nil, err
	}
	return FromProgram(out), nil
}

// VerifyAgainst explores both programs exhaustively and reports whether
// their reachable outcome sets over all globals coincide. The two
// explorations run through the analyzer's configured pool — concurrently
// when the configuration requests parallelism.
func (a *Analyzer) VerifyAgainst(other *Analyzer) apps.Equivalence {
	return apps.VerifyScheduleWith(a.Prog, other.Prog, a.runOptions())
}
