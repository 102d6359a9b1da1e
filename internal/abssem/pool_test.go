package abssem

import (
	"runtime"
	"testing"
	"time"

	"psa/internal/absdom"
	"psa/internal/explore"
	"psa/internal/sched"
	"psa/internal/workloads"
)

// One shared sched.Pool must serve consecutive Analyze calls — and mixed
// Explore/Analyze sequences, the CLI pattern — with results identical to
// the sequential engines, then release every goroutine on Close.
func TestSharedPoolAcrossEngines(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)

	aseq := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true})
	for run := 0; run < 2; run++ {
		apar := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true,
			Workers: 4, Pool: pool})
		sameResult(t, aseq, apar)
	}

	eseq := explore.Explore(prog, explore.Options{Reduction: explore.Full})
	epar := explore.Explore(prog, explore.Options{Reduction: explore.Full, Workers: 4, Pool: pool})
	if epar.States != eseq.States || epar.Edges != eseq.Edges {
		t.Errorf("concrete explorer on the shared pool: %d/%d != sequential %d/%d",
			epar.States, epar.Edges, eseq.States, eseq.Edges)
	}
	// And the abstract engine again, after the concrete one used the pool.
	apar := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true,
		Workers: 4, Pool: pool})
	sameResult(t, aseq, apar)

	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// A MaxStates truncation cuts the serial merge mid-round, after the
// fan-out finished; the shared pool must stay usable and the run must
// not leak workers.
func TestPoolCleanShutdownOnTruncation(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)
	opts := Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: 17}
	seq := Analyze(prog, opts)
	if !seq.Truncated {
		t.Fatal("MaxStates=17 did not truncate")
	}
	popts := opts
	popts.Workers = 4
	popts.Pool = pool
	par := Analyze(prog, popts)
	sameResult(t, seq, par)
	// The pool survives the cut and serves a complete fixpoint next.
	full := Analyze(prog, Options{Domain: absdom.ConstDomain{}, Workers: 4, Pool: pool})
	if full.Truncated {
		t.Error("post-truncation reuse: full run reported truncation")
	}
	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// Without Options.Pool each parallel Analyze runs a private pool and
// must tear it down on exit — on the fixpoint path and the truncation
// path alike.
func TestPrivatePoolNoGoroutineLeak(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	Analyze(prog, Options{Domain: absdom.IntervalDomain{}, Workers: 4})
	Analyze(prog, Options{Domain: absdom.ConstDomain{}, MaxStates: 17, Workers: 4})
	waitForGoroutineBaseline(t, before)
}

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
