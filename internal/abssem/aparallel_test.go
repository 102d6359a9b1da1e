package abssem

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/workloads"
)

// sameResult asserts that two abstract interpretation results are
// bit-identical: every exported Result field, the per-point invariant
// map, and the collected footprints.
func sameResult(t *testing.T, seq, par *Result) {
	t.Helper()
	if par.States != seq.States {
		t.Errorf("states: parallel %d != sequential %d", par.States, seq.States)
	}
	if par.Visits != seq.Visits {
		t.Errorf("visits: parallel %d != sequential %d", par.Visits, seq.Visits)
	}
	if par.TerminalCount != seq.TerminalCount {
		t.Errorf("terminals: parallel %d != sequential %d", par.TerminalCount, seq.TerminalCount)
	}
	if par.MayError != seq.MayError {
		t.Errorf("mayError: parallel %v != sequential %v", par.MayError, seq.MayError)
	}
	if par.Truncated != seq.Truncated {
		t.Errorf("truncated: parallel %v != sequential %v", par.Truncated, seq.Truncated)
	}
	switch {
	case (par.Terminal == nil) != (seq.Terminal == nil):
		t.Errorf("terminal store: parallel %v != sequential %v", par.Terminal, seq.Terminal)
	case par.Terminal != nil:
		if !par.Terminal.Eq(seq.Terminal) || par.Terminal.String() != seq.Terminal.String() {
			t.Errorf("terminal store: parallel %s != sequential %s", par.Terminal, seq.Terminal)
		}
	}
	if len(par.at) != len(seq.at) {
		t.Errorf("invariant map: parallel %d points != sequential %d", len(par.at), len(seq.at))
	}
	for id, want := range seq.at {
		got := par.at[id]
		if got == nil {
			t.Errorf("invariant at node %d missing in parallel result", id)
			continue
		}
		if !got.Eq(want) || got.String() != want.String() {
			t.Errorf("invariant at node %d: parallel %s != sequential %s", id, got, want)
		}
	}
	switch {
	case (par.foot == nil) != (seq.foot == nil):
		t.Errorf("footprints: parallel %v != sequential %v", par.foot != nil, seq.foot != nil)
	case par.foot != nil:
		if !reflect.DeepEqual(par.foot.m, seq.foot.m) {
			t.Error("footprint maps differ")
		}
	}
}

// analyzeAt runs the parallel abstract engine at the given worker count.
// Workers=1 would make every round one entry, so that count runs
// worklist-wide rounds inline instead, on a one-worker pool.
func analyzeAt(prog *lang.Program, opts Options, workers int) *Result {
	opts.Workers = workers
	if workers == 1 {
		pool := sched.NewPool(1)
		defer pool.Close()
		opts.Workers, opts.Pool = -1, pool
	}
	return Analyze(prog, opts)
}

// abstractTables returns the domains and workload programs of the
// abstract differential tables.
func abstractTables() (map[string]absdom.NumDomain, map[string]*lang.Program) {
	domains := map[string]absdom.NumDomain{
		"const":    absdom.ConstDomain{},
		"interval": absdom.IntervalDomain{},
		"sign":     absdom.SignDomain{},
	}
	progs := map[string]*lang.Program{
		"fig2":     workloads.Fig2(),
		"fig8":     workloads.Fig8Calls(),
		"philo3":   workloads.Philosophers(3),
		"workers":  workloads.IndependentWorkers(3, 3),
		"prodcons": workloads.ProducerConsumer(2),
		"busywait": workloads.BusyWait(),
	}
	return domains, progs
}

// matchesSequentialAbstract requires the parallel abstract fixpoint to
// reproduce the sequential engine's Result bit-for-bit — including the
// deterministic metrics counters — at every count in workers, across
// domains and workload shapes. (CI runs this under -race; the workers
// share the step context and the round's state snapshots, so the race
// detector exercises the "workers only read, merge only writes"
// discipline.)
func matchesSequentialAbstract(t *testing.T, workers []int) {
	domains, progs := abstractTables()
	for dname, dom := range domains {
		for pname, prog := range progs {
			t.Run(dname+"/"+pname, func(t *testing.T) {
				mseq := metrics.New()
				seq := Analyze(prog, Options{Domain: dom, CollectFootprints: true, Metrics: mseq})
				for _, workers := range workers {
					mpar := metrics.New()
					par := analyzeAt(prog, Options{Domain: dom, CollectFootprints: true, Metrics: mpar}, workers)
					sameResult(t, seq, par)
					got := mpar.Snapshot().DeterministicCounters()
					want := mseq.Snapshot().DeterministicCounters()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d: deterministic counters differ:\n  parallel   %v\n  sequential %v",
							workers, got, want)
					}
				}
			})
		}
	}
}

// The fan-out worker counts the CLIs and psad run: 2 and 4.
func TestParallelMatchesSequentialAbstract(t *testing.T) {
	matchesSequentialAbstract(t, []int{2, 4})
}

// The rest of the sweep: the single-worker inline path and more workers
// than cores (8, GOMAXPROCS). The name is kept from the dependency-driven
// executor this test checked before that executor was removed; the
// leveled executor is held to the same bar.
func TestDepMatchesSequentialAbstract(t *testing.T) {
	matchesSequentialAbstract(t, []int{1, 8, -1})
}

// A sequential run merges every entry in the round that expanded it, so
// no expansion can go stale: abs_stale_recomputes stays 0 across the
// abstract tables and the first 20 corpus programs.
func TestSequentialNeverStale(t *testing.T) {
	stale := func(t *testing.T, prog *lang.Program, opts Options) {
		t.Helper()
		m := metrics.New()
		opts.Metrics = m
		Analyze(prog, opts)
		if n := m.Get(metrics.AbsStaleRecomputes); n != 0 {
			t.Errorf("abs_stale_recomputes = %d at Workers 0, want 0", n)
		}
	}
	domains, progs := abstractTables()
	for dname, dom := range domains {
		for pname, prog := range progs {
			t.Run(dname+"/"+pname, func(t *testing.T) {
				stale(t, prog, Options{Domain: dom, CollectFootprints: true})
			})
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		prog := corpus(t, seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			stale(t, prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true, MaxStates: corpusMaxStates})
		})
	}
}

// The whole testdata corpus must analyze identically at any worker count.
func TestParallelCorpusAbstract(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("testdata: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".cb") {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			seq := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true})
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				par := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true, Workers: workers})
				sameResult(t, seq, par)
			}
		})
	}
	if ran < 5 {
		t.Fatalf("corpus too small: %d programs", ran)
	}
}

// randomMatches analyzes the first 20 corpus programs in dom,
// sequentially and at the given worker count, and requires bit-identical
// results; a run cut at corpusMaxStates must match at the same cut. Random programs stress join/widen interleavings the
// hand-written workloads miss — in particular rounds where a join grows a
// state that was snapshotted earlier in the same round (the
// stale-recompute path).
func randomMatches(t *testing.T, dom absdom.NumDomain, workers int) {
	if testing.Short() {
		t.Skip("random corpus in -short mode")
	}
	for seed := int64(0); seed < 20; seed++ {
		prog := corpus(t, seed)
		opts := Options{Domain: dom, CollectFootprints: true, MaxStates: corpusMaxStates}
		seq := Analyze(prog, opts)
		par := analyzeAt(prog, opts, workers)
		if t.Failed() {
			return
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { sameResult(t, seq, par) })
	}
}

func TestParallelRandomAbstract(t *testing.T) {
	randomMatches(t, absdom.IntervalDomain{}, 4)
}

// The same corpus in the constant domain, at two workers.
func TestDepRandomAbstract(t *testing.T) {
	randomMatches(t, absdom.ConstDomain{}, 2)
}

// truncationMatchesAbstract requires truncated runs to match too: the
// MaxStates cut happens at the same discovery in both engines, and both
// report the explored prefix — invariants, terminals, footprints —
// bit-identically.
func truncationMatchesAbstract(t *testing.T, prog *lang.Program, dom absdom.NumDomain) {
	t.Helper()
	for _, max := range []int{5, 17, 60} {
		opts := Options{Domain: dom, CollectFootprints: true, MaxStates: max}
		seq := Analyze(prog, opts)
		if !seq.Truncated {
			t.Fatalf("MaxStates=%d did not truncate", max)
		}
		for _, workers := range []int{1, 2, 4} {
			sameResult(t, seq, analyzeAt(prog, opts, workers))
		}
	}
}

func TestParallelTruncationMatches(t *testing.T) {
	truncationMatchesAbstract(t, workloads.Philosophers(3), absdom.ConstDomain{})
}

// The same cut on a producer/consumer loop in the interval domain.
func TestDepTruncationMatchesAbstract(t *testing.T) {
	truncationMatchesAbstract(t, workloads.ProducerConsumer(2), absdom.IntervalDomain{})
}
