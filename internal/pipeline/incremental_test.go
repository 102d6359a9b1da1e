package pipeline

import (
	"reflect"
	"testing"

	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
)

const incBase = `
var g = 0;
var h = 0;

func bump(x) {
  g = g + x;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// Same program with a renamed local in main — α-equivalent, so the
// whole-program fast path must fire (without clan folding).
const incRenamed = `
var g = 0;
var h = 0;

func bump(y) {
  g = g + y;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// A real edit: bump's body changes, poke is untouched.
const incEdited = `
var g = 0;
var h = 0;

func bump(x) {
  g = g + x + 1;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// scratchCounters runs a from-scratch analysis with a fresh registry and
// returns (digest, deterministic counters).
func scratchCounters(t *testing.T, src string, ro RunOptions) (string, map[string]int64) {
	t.Helper()
	m := metrics.New()
	ro.Metrics = m
	res := Analyze(lang.MustParse(src), ro, nil)
	return res.Digest(), m.Snapshot().DeterministicCounters()
}

func TestIncrementalBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		ro   RunOptions
	}{
		{"seq", RunOptions{}},
		{"leveled4", RunOptions{Workers: 4}},
		{"dep4", RunOptions{Workers: 4, Sched: sched.DepDriven}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := NewIncremental(tc.ro, nil)
			chain := []string{incBase, incRenamed, incEdited, incBase}
			for i, src := range chain {
				wantDig, wantCtr := scratchCounters(t, src, tc.ro)
				ro := tc.ro
				m := metrics.New()
				ro.Metrics = m
				inc.Configure(ro) // thread a fresh registry per step
				got := inc.AnalyzeEdit(lang.MustParse(src))
				if dig := got.Digest(); dig != wantDig {
					t.Fatalf("step %d: incremental digest %s != scratch %s", i, dig, wantDig)
				}
				if ctr := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(ctr, wantCtr) {
					t.Fatalf("step %d: deterministic counters diverged:\nincremental %v\nscratch     %v",
						i, ctr, wantCtr)
				}
			}
		})
	}
}

func TestIncrementalFastPathFires(t *testing.T) {
	m := metrics.New()
	inc := NewIncremental(RunOptions{Metrics: m}, nil)
	inc.AnalyzeEdit(lang.MustParse(incBase))
	if m.Get(metrics.AnalysisCacheMiss) != 1 {
		t.Fatalf("cold call: want 1 miss, got %d", m.Get(metrics.AnalysisCacheMiss))
	}

	// α-equivalent rename: no fixpoint, result rebound onto the new
	// program so label queries resolve against it.
	visits := m.Get(metrics.AbsVisits)
	res := inc.AnalyzeEdit(lang.MustParse(incRenamed))
	if m.Get(metrics.AnalysisCacheHit) != 1 {
		t.Fatalf("rename: want fast-path hit, got %d hits / %d misses",
			m.Get(metrics.AnalysisCacheHit), m.Get(metrics.AnalysisCacheMiss))
	}
	// The replayed deltas must make the registry read exactly as if the
	// fixpoint had run again.
	if got := m.Get(metrics.AbsVisits); got != 2*visits {
		t.Fatalf("rename: replayed AbsVisits = %d, want %d", got, 2*visits)
	}
	if res.Cancelled || res.States == 0 {
		t.Fatalf("rename: implausible reused result %+v", res)
	}

	// Real edit: the fixpoint re-runs from scratch.
	inc.AnalyzeEdit(lang.MustParse(incEdited))
	if m.Get(metrics.AnalysisCacheMiss) != 2 {
		t.Fatalf("edit: want second miss, got %d", m.Get(metrics.AnalysisCacheMiss))
	}
}

func TestIncrementalClanFoldUsesNamedHash(t *testing.T) {
	// Under clan folding a local rename is NOT a no-op edit (arm grouping
	// sees names), so the fast path must not fire — but the result must
	// still match scratch.
	adjust := func(o *abssem.Options) { o.ClanFold = true }
	m := metrics.New()
	inc := NewIncremental(RunOptions{Metrics: m}, adjust)
	inc.AnalyzeEdit(lang.MustParse(incBase))
	res := inc.AnalyzeEdit(lang.MustParse(incRenamed))
	if m.Get(metrics.AnalysisCacheHit) != 0 {
		t.Fatal("rename took the fast path under ClanFold; named hash not honored")
	}
	want := Analyze(lang.MustParse(incRenamed), RunOptions{}, adjust).Digest()
	if res.Digest() != want {
		t.Fatalf("clan-fold incremental diverged from scratch")
	}
}
