package explore

import (
	"context"
	"reflect"
	"testing"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/progen"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// corpus returns seed's program for the random differential corpora
// (progen.CorpusProfile).
func corpus(t *testing.T, seed int64) *lang.Program {
	t.Helper()
	prog, _, err := progen.Generate(seed, progen.CorpusProfile())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// exploreAt runs the parallel explorer from c0 at the given worker count.
// Workers=1 short-circuits to the sequential loop in ExploreFrom, so that
// count drives exploreParallel's single-worker inline path directly.
func exploreAt(c0 *sem.Config, opts Options, workers int) *Result {
	opts.Workers = workers
	if workers != 1 {
		return ExploreFrom(c0, opts)
	}
	if opts.MaxConfigs <= 0 {
		opts.MaxConfigs = 1 << 20
	}
	return exploreParallel(context.Background(), c0, opts, 1)
}

// sweep is the worker-count sweep of the parallel differential tests;
// -1 requests GOMAXPROCS.
var sweep = []int{1, 2, 4, 8, -1}

// matchesSequential explores each table program sequentially and then in
// parallel at every count in workers, and requires the sequential
// explorer's numbers exactly — states, edges, terminal sets, graph shape,
// deterministic counters, and the peak frontier.
func matchesSequential(t *testing.T, workers []int) {
	progs := map[string]Options{
		"fig2-full":          {Reduction: Full},
		"fig5-stubborn":      {Reduction: Stubborn},
		"philo3-full":        {Reduction: Full},
		"philo4-reduced":     {Reduction: Stubborn, Coarsen: true},
		"workers-coarsened":  {Reduction: Full, Coarsen: true},
		"peterson-reduced":   {Reduction: Stubborn, Coarsen: true},
		"crossedwait-graphs": {Reduction: Full, KeepGraph: true},
	}
	sources := map[string]func() *sem.Config{
		"fig2-full":          func() *sem.Config { return sem.NewConfig(workloads.Fig2()) },
		"fig5-stubborn":      func() *sem.Config { return sem.NewConfig(workloads.Fig5Malloc()) },
		"philo3-full":        func() *sem.Config { return sem.NewConfig(workloads.Philosophers(3)) },
		"philo4-reduced":     func() *sem.Config { return sem.NewConfig(workloads.Philosophers(4)) },
		"workers-coarsened":  func() *sem.Config { return sem.NewConfig(workloads.IndependentWorkers(3, 3)) },
		"peterson-reduced":   func() *sem.Config { return sem.NewConfig(workloads.Peterson()) },
		"crossedwait-graphs": func() *sem.Config { return sem.NewConfig(workloads.CrossedWait()) },
	}
	for name, opts := range progs {
		t.Run(name, func(t *testing.T) {
			mseq := metrics.New()
			sopts := opts
			sopts.Metrics = mseq
			seq := ExploreFrom(sources[name](), sopts)
			for _, workers := range workers {
				mpar := metrics.New()
				popts := opts
				popts.Metrics = mpar
				pres := exploreAt(sources[name](), popts, workers)
				if pres.States != seq.States || pres.Edges != seq.Edges {
					t.Errorf("workers=%d: parallel %d/%d != sequential %d/%d",
						workers, pres.States, pres.Edges, seq.States, seq.Edges)
				}
				if pres.MaxFrontier != seq.MaxFrontier {
					t.Errorf("workers=%d: maxFrontier: parallel %d != sequential %d",
						workers, pres.MaxFrontier, seq.MaxFrontier)
				}
				if !reflect.DeepEqual(pres.TerminalStoreSet(), seq.TerminalStoreSet()) {
					t.Errorf("workers=%d: terminal sets differ", workers)
				}
				got := mpar.Snapshot().DeterministicCounters()
				want := mseq.Snapshot().DeterministicCounters()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: deterministic counters differ:\n  parallel   %v\n  sequential %v",
						workers, got, want)
				}
				if opts.KeepGraph {
					if len(pres.Graph.Nodes) != pres.States {
						t.Errorf("workers=%d: parallel graph inconsistent", workers)
					}
					if got, want := len(pres.Graph.Divergent()), len(seq.Graph.Divergent()); got != want {
						t.Errorf("workers=%d: divergent: parallel %d != sequential %d", workers, got, want)
					}
				}
			}
		})
	}
}

// The fan-out worker counts the CLIs and psad run: 2 and 4.
func TestParallelMatchesSequential(t *testing.T) {
	matchesSequential(t, []int{2, 4})
}

// The rest of the sweep: the single-worker inline path and more workers
// than cores (8, GOMAXPROCS). The name is kept from the dependency-driven
// executor this test checked before that executor was removed; the
// leveled executor is held to the same bar.
func TestDepMatchesSequential(t *testing.T) {
	matchesSequential(t, []int{1, 8, -1})
}

func TestParallelCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus in -short mode")
	}
	for seed := int64(0); seed < 25; seed++ {
		prog := corpus(t, seed)
		seq := Explore(prog, Options{Reduction: Full, MaxConfigs: 1 << 17})
		if seq.Truncated {
			continue
		}
		par := Explore(prog, Options{Reduction: Full, MaxConfigs: 1 << 17, Workers: 3})
		if par.States != seq.States || par.Edges != seq.Edges || par.MaxFrontier != seq.MaxFrontier {
			t.Errorf("seed %d: parallel %d/%d/%d != sequential %d/%d/%d", seed,
				par.States, par.Edges, par.MaxFrontier, seq.States, seq.Edges, seq.MaxFrontier)
		}
		if !reflect.DeepEqual(par.TerminalStoreSet(), seq.TerminalStoreSet()) {
			t.Errorf("seed %d: terminal sets differ", seed)
		}
	}
}

// The same corpus under stubborn sets and coarsening, at two workers:
// the reduced successor relation must fan out and merge as deterministically
// as the full one.
func TestDepCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus in -short mode")
	}
	for seed := int64(0); seed < 25; seed++ {
		prog := corpus(t, seed)
		opts := Options{Reduction: Stubborn, Coarsen: true, MaxConfigs: 1 << 17}
		seq := Explore(prog, opts)
		if seq.Truncated {
			continue
		}
		par := exploreAt(sem.NewConfig(prog), opts, 2)
		if par.States != seq.States || par.Edges != seq.Edges || par.MaxFrontier != seq.MaxFrontier {
			t.Errorf("seed %d: parallel %d/%d/%d != sequential %d/%d/%d", seed,
				par.States, par.Edges, par.MaxFrontier, seq.States, seq.Edges, seq.MaxFrontier)
		}
		if !reflect.DeepEqual(par.TerminalStoreSet(), seq.TerminalStoreSet()) {
			t.Errorf("seed %d: terminal sets differ", seed)
		}
	}
}

// The ordered merge must replay the sequential sink stream verbatim, not
// merely the same multiset, on the heap, graph and plain-interleaving
// programs TestParallelMetricsDeterministic does not cover (orderedSink
// is the event-for-event recorder from metrics_test.go).
func TestDepSinkStreamIsSequential(t *testing.T) {
	progs := map[string]struct {
		prog *lang.Program
		opts Options
	}{
		"fig2-full":          {workloads.Fig2(), Options{Reduction: Full}},
		"fig5-stubborn":      {workloads.Fig5Malloc(), Options{Reduction: Stubborn}},
		"crossedwait-graphs": {workloads.CrossedWait(), Options{Reduction: Full, KeepGraph: true}},
	}
	for name, tc := range progs {
		var want orderedSink
		ref := tc.opts
		ref.Sink = &want
		Explore(tc.prog, ref)
		for _, workers := range []int{1, 2, 4} {
			var got orderedSink
			opts := tc.opts
			opts.Sink = &got
			exploreAt(sem.NewConfig(tc.prog), opts, workers)
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("%s workers=%d: sink stream diverges from sequential (%d vs %d events)",
					name, workers, len(got.events), len(want.events))
			}
		}
	}
}

func TestParallelSinkSeesEverything(t *testing.T) {
	sink := &recordingSink{}
	res := Explore(workloads.Fig2(), Options{Reduction: Full, Workers: 4, Sink: sink})
	if sink.transitions != res.Edges {
		t.Errorf("sink saw %d transitions, explorer counted %d", sink.transitions, res.Edges)
	}
	if len(sink.conflicts) == 0 {
		t.Error("co-enabled conflicts not reported in parallel mode")
	}
}

// truncationMatches requires every truncated parallel run of prog to
// equal the sequential truncated run exactly: the cut falls on the same
// discovery, and the explored prefix — counts, terminals, errors —
// matches. Workers expand the whole level past the cut; none of that
// speculative work may leak into the Result.
func truncationMatches(t *testing.T, prog *lang.Program, opts Options) {
	t.Helper()
	for _, max := range []int{50, 200, 1000} {
		opts.MaxConfigs = max
		seq := Explore(prog, opts)
		if !seq.Truncated {
			t.Fatalf("MaxConfigs=%d did not truncate", max)
		}
		for _, workers := range []int{1, 2, 4} {
			par := exploreAt(sem.NewConfig(prog), opts, workers)
			if !par.Truncated {
				t.Errorf("max=%d workers=%d: parallel run not truncated", max, workers)
			}
			if par.States != seq.States || par.Edges != seq.Edges || par.MaxFrontier != seq.MaxFrontier {
				t.Errorf("max=%d workers=%d: parallel %d/%d/%d != sequential %d/%d/%d", max, workers,
					par.States, par.Edges, par.MaxFrontier, seq.States, seq.Edges, seq.MaxFrontier)
			}
			if !reflect.DeepEqual(par.TerminalStoreSet(), seq.TerminalStoreSet()) {
				t.Errorf("max=%d workers=%d: truncated terminal sets differ", max, workers)
			}
			if len(par.Errors) != len(seq.Errors) {
				t.Errorf("max=%d workers=%d: errors: parallel %d != sequential %d",
					max, workers, len(par.Errors), len(seq.Errors))
			}
		}
	}
}

func TestParallelTruncation(t *testing.T) {
	truncationMatches(t, workloads.Philosophers(4), Options{Reduction: Full})
}

// The same cut under stubborn sets and coarsening, where one merged
// successor may stand for several steps.
func TestDepTruncationMatchesSequential(t *testing.T) {
	truncationMatches(t, workloads.Philosophers(5), Options{Reduction: Stubborn, Coarsen: true})
}

// replays requires the graph's trace to key to replay step-for-step on
// the concrete semantics from prog's initial configuration.
func replays(t *testing.T, prog *lang.Program, g *Graph, key sem.Key) {
	t.Helper()
	trace, ok := g.TraceTo(key)
	if !ok {
		t.Fatal("no trace")
	}
	c := sem.NewConfig(prog)
	for _, step := range trace {
		idx := -1
		for j, p := range c.Procs {
			if p.Path == step.Proc {
				idx = j
			}
		}
		if idx < 0 {
			t.Fatal("replay lost a process")
		}
		c = c.Step(idx).Config
	}
	if c.Encode() != key {
		t.Error("parallel-discovered trace does not replay to its state")
	}
}

// A violation trace discovered by the parallel engine must replay
// step-for-step on the concrete semantics.
func TestParallelTraceReplay(t *testing.T) {
	prog := workloads.PetersonBroken()
	res := Explore(prog, Options{Reduction: Full, KeepGraph: true, Workers: 4})
	if len(res.Errors) == 0 {
		t.Fatal("violation expected")
	}
	replays(t, prog, res.Graph, res.Errors[0].Encode())
}

// Every violation the two-worker engine reports, not only the first,
// carries a replayable trace.
func TestDepTraceReplay(t *testing.T) {
	prog := workloads.PetersonBroken()
	res := Explore(prog, Options{Reduction: Full, KeepGraph: true, Workers: 2})
	if len(res.Errors) < 2 {
		t.Fatalf("%d violations, want at least 2", len(res.Errors))
	}
	for _, e := range res.Errors {
		replays(t, prog, res.Graph, e.Encode())
	}
}

func TestNegativeWorkersMeansAllCores(t *testing.T) {
	res := Explore(workloads.Fig2(), Options{Reduction: Full, Workers: -1})
	seq := Explore(workloads.Fig2(), Options{Reduction: Full})
	if res.States != seq.States {
		t.Errorf("auto-worker run differs: %d vs %d", res.States, seq.States)
	}
}
