package paperexp

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// loadEditChains reads the hand-written edit chains under
// testdata/edits. Files are named <chain>-<step>.cb; the returned map
// holds each chain's version sources in step order. The five chains pin
// the edit classes the incremental layer distinguishes: an α-neutral
// local rename, a callee body change, a signature change, a procedure
// add/delete, and a cobegin-arm edit.
func loadEditChains(t *testing.T) map[string][]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "edits", "*.cb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no edit corpus found: %v", err)
	}
	sort.Strings(paths) // <chain>-0.cb sorts before <chain>-1.cb
	chains := map[string][]string{}
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".cb")
		i := strings.LastIndex(base, "-")
		if i < 0 {
			t.Fatalf("edit corpus file %s is not named <chain>-<step>.cb", p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if _, err := lang.Parse(string(data)); err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		chains[base[:i]] = append(chains[base[:i]], string(data))
	}
	return chains
}

// TestEditCorpusIncremental pins the incremental layer's bit-identity
// contract over the checked-in edit chains: feeding each chain through a
// persistent pipeline.Incremental session — sequential, leveled ×4, and
// dependency-driven ×4 — must reproduce, at every step, the exact
// Result digest and deterministic counter set of a from-scratch
// analysis of that version.
func TestEditCorpusIncremental(t *testing.T) {
	chains := loadEditChains(t)
	if len(chains) != 5 {
		t.Fatalf("expected the 5 canonical edit chains, found %d: %v", len(chains), chains)
	}
	engines := []struct {
		name string
		ro   pipeline.RunOptions
	}{
		{"seq", pipeline.RunOptions{}},
		{"leveled4", pipeline.RunOptions{Workers: 4}},
		{"dep4", pipeline.RunOptions{Workers: 4, Sched: sched.DepDriven}},
	}
	names := make([]string, 0, len(chains))
	for name := range chains {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		versions := chains[name]
		t.Run(name, func(t *testing.T) {
			for _, eng := range engines {
				inc := pipeline.NewIncremental(eng.ro, nil)
				for step, src := range versions {
					sm := metrics.New()
					roS := eng.ro
					roS.Metrics = sm
					want := pipeline.Analyze(lang.MustParse(src), roS, nil)
					if want.Truncated {
						t.Fatalf("%s step %d: scratch run truncated", eng.name, step)
					}

					m := metrics.New()
					ro := eng.ro
					ro.Metrics = m
					got := inc.Configure(ro).AnalyzeEdit(lang.MustParse(src))
					if got.Digest() != want.Digest() {
						t.Errorf("%s step %d: incremental digest %s != scratch %s",
							eng.name, step, got.Digest(), want.Digest())
					}
					wantCtr := sm.Snapshot().DeterministicCounters()
					if gotCtr := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(gotCtr, wantCtr) {
						t.Errorf("%s step %d: deterministic counters diverged:\nincremental %v\nscratch     %v",
							eng.name, step, gotCtr, wantCtr)
					}

					// Reuse shape: the α-neutral rename takes the
					// whole-program fast path.
					if step == 1 && name == "rename-local" && m.Get(metrics.AnalysisCacheHit) == 0 {
						t.Errorf("%s: rename step did not take the whole-program fast path", eng.name)
					}
				}
			}
		})
	}
}
