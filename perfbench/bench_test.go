package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/service"
	"psa/internal/workloads"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func loadAnswers(t *testing.T) Answers {
	t.Helper()
	ans, err := LoadAnswers(answersFile)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func workloadNames() []string { return strings.Split(workloadList, "|") }

func stream(t *testing.T, ans Answers, workload string, seed int64) []*Request {
	t.Helper()
	u, err := BuildUniverse(workload)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildStream(u, ans, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSameSeedSameStream(t *testing.T) {
	ans := loadAnswers(t)
	for _, w := range workloadNames() {
		a, b, c := stream(t, ans, w, 7), stream(t, ans, w, 7), stream(t, ans, w, 8)
		if len(a) != len(b) {
			t.Fatalf("%s: stream lengths %d and %d", w, len(a), len(b))
		}
		differs := false
		for i := range a {
			if a[i].Entry.Name != b[i].Entry.Name || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Mark != b[i].Mark {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w, i)
			}
			differs = differs || a[i].Entry != c[i].Entry
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

func TestStreamedProgramsParse(t *testing.T) {
	ans := loadAnswers(t)
	for _, w := range workloadNames() {
		u, err := BuildUniverse(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range u.All() {
			if _, err := lang.Parse(e.Src); err != nil {
				t.Errorf("%s: %s does not parse: %v", w, e.Name, err)
			}
			if _, ok := ans[e.Key()]; !ok {
				t.Errorf("%s: %s has no recorded answer", w, e.Name)
			}
		}
		seen := map[string]bool{}
		for _, r := range stream(t, ans, w, 1) {
			if r.Body == nil || seen[string(r.Body)] {
				continue
			}
			seen[string(r.Body)] = true
			var req service.Request
			if err := json.Unmarshal(r.Body, &req); err != nil {
				t.Fatalf("%s: %s: %v", w, r.Entry.Name, err)
			}
			if _, err := lang.Parse(req.Program); err != nil {
				t.Fatalf("%s: %s: streamed program does not parse: %v", w, r.Entry.Name, err)
			}
			if r.Base != (req.Base != "") || (r.Base && req.Base != r.Entry.Prev.Hash) {
				t.Fatalf("%s: %s: base %q does not name the edited version", w, r.Entry.Name, req.Base)
			}
		}
	}
}

// A corrupted expected answer must make the run fail.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	for _, w := range []string{"service-mix", "report-corpus"} {
		ans := loadAnswers(t)
		first := stream(t, ans, w, 3)[0].Entry
		bad := Answers{}
		for k, v := range ans {
			bad[k] = v
		}
		a := bad[first.Key()]
		a.States++
		a.ReportSHA += "0"
		bad[first.Key()] = a

		res, err := Run(Options{Workload: w, Seed: 3, Seconds: 0.5}, bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: run with a corrupted answer for %s reported correct=%t failed=%d",
				w, first.Name, res.Correct, res.Failed)
		}
		res, err = Run(Options{Workload: w, Seed: 3, Seconds: 0.5}, ans)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: run with the recorded answers reported correct=%t failed=%d", w, res.Correct, res.Failed)
		}
	}
}

func TestOutcomeSetsMustAgree(t *testing.T) {
	e := &Entry{Name: "p/full", Analysis: "explore", Pair: "p", Options: service.Options{Outcomes: true}}
	c := NewChecker(Answers{e.Key(): {Name: e.Name, States: 1, Terminals: 1}})
	r := service.Response{States: 1, Terminals: 1, Outcomes: []string{"a"}}
	if err := c.Response(e, 200, &r); err != nil {
		t.Fatal(err)
	}
	r.Outcomes = []string{"b"}
	if err := c.Response(e, 200, &r); err == nil {
		t.Error("a second strategy's different outcome set passed the check")
	}
}

// Each known divergence must still diverge: when the engine is fixed,
// this fails and the entry is removed from knownDivergent.
func TestKnownDivergencesStillDiverge(t *testing.T) {
	u, err := BuildUniverse("explore-philo")
	if err != nil {
		t.Fatal(err)
	}
	for pair := range knownDivergent {
		var sets []string
		for _, unit := range u.Units {
			for _, e := range unit {
				if e.Pair != pair {
					continue
				}
				red, _ := parseReduction(e.Options.Reduction)
				res := explore.Explore(lang.MustParse(e.Src), explore.Options{Reduction: red, MaxConfigs: e.Options.MaxConfigs})
				if res.Truncated {
					t.Fatalf("%s truncates", e.Name)
				}
				sets = append(sets, strings.Join(res.TerminalStoreSet(), "\n"))
			}
		}
		if len(sets) != 2 {
			t.Fatalf("%s: %d entries in the universe, want 2", pair, len(sets))
		}
		if sets[0] == sets[1] {
			t.Errorf("%s: full and stubborn outcome sets now agree; remove it from knownDivergent", pair)
		}
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, "|"); got != workloadList {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, workloadList)
	}
	e2e := endToEnd(&Workload{}, &LoopResult{Before: ReadUsage(), After: ReadUsage()}).Metrics
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the run prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, run prints %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if want := layerMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, traced run %+v", i, m, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	l := &LoopResult{}
	for i := 99; i >= 1; i-- {
		l.Latencies = append(l.Latencies, float64(i))
	}
	if p := l.Percentile(50); math.Abs(p-50) > 1e-9 {
		t.Errorf("p50 of 1..99 = %v, want 50", p)
	}
	if p := l.Percentile(90); p < 88 || p > 92 {
		t.Errorf("p90 of 1..99 = %v, want about 90", p)
	}
	l.Latencies[0] = math.Inf(1) // a failure counts as infinitely slow
	if p := l.Percentile(50); p < 49 || p > 51 {
		t.Errorf("p50 with one failure = %v, want about 50", p)
	}
	if p := l.Percentile(90); !math.IsInf(p, 1) {
		t.Errorf("p90 with a failure among its top ranks = %v, want +Inf", p)
	}
	for i := 0; i < 60; i++ {
		l.Latencies[i] = math.Inf(1)
	}
	if p := l.Percentile(50); !math.IsInf(p, 1) {
		t.Errorf("p50 with most requests failed = %v, want +Inf", p)
	}
}

func TestLayerTable(t *testing.T) {
	for fn, want := range map[string]string{
		"psa/internal/sem.(*Config).cloneProc":     "sem.clone",
		"psa/internal/sem.(*encoder).num":          "sem.encode",
		"psa/internal/sem.(*Config).step":          "sem.step",
		"psa/internal/explore.(*fpSet).add":        "explore.visited",
		"psa/internal/explore.stubbornSet":         "explore.stubborn",
		"psa/internal/abssem.(*AConfig).joinInto":  "abssem.join",
		"psa/internal/absdom.IntervalDomain.Widen": "abssem.join",
		"psa/internal/abssem.(*AConfig).signature": "abssem.signature",
		"psa/internal/abssem.(*Result).collect":    "abssem.collect",
		"psa/internal/abssem.(*stepCtx).step":      "abssem.transfer",
		"psa/internal/service.writeJSON":           "service",
		"encoding/json.Marshal":                    "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeReadsAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	prog := workloads.Philosophers(4)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		explore.Explore(prog, explore.Options{})
	}
	pprof.StopCPUProfile()
	cpu, err := Attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sem := cpu["sem.step"] + cpu["sem.clone"] + cpu["sem.encode"]
	if sem == 0 {
		t.Errorf("no samples charged to sem: %v", cpu)
	}
}
