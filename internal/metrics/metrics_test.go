package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every method must be a no-op on the nil registry — the explorers call
// them unconditionally on their hot paths.
func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc(StatesUnique)
	r.Add(TransitionsFired, 5)
	r.SetGauge(FrontierWidth, 3)
	r.MaxGauge(MaxFrontier, 9)
	r.BeginLevel(10)
	r.EndLevel()
	r.Phase("explore")()
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	if r.Get(StatesUnique) != 0 || r.Gauge(FrontierWidth) != 0 || r.Elapsed() != 0 {
		t.Error("nil registry returned non-zero values")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	stop := r.StartProgress(&bytes.Buffer{}, time.Millisecond)
	stop()
}

func TestCountersAndGauges(t *testing.T) {
	r := New()
	r.Inc(StatesUnique)
	r.Add(StatesUnique, 2)
	r.Add(DedupHits, 7)
	if got := r.Get(StatesUnique); got != 3 {
		t.Errorf("StatesUnique = %d, want 3", got)
	}
	r.SetGauge(FrontierWidth, 5)
	r.MaxGauge(MaxFrontier, 5)
	r.MaxGauge(MaxFrontier, 3) // must not lower it
	if got := r.Gauge(MaxFrontier); got != 5 {
		t.Errorf("MaxFrontier = %d, want 5", got)
	}
	s := r.Snapshot()
	if s.Counters["states_unique"] != 3 || s.Counters["dedup_hits"] != 7 {
		t.Errorf("snapshot counters wrong: %v", s.Counters)
	}
	if s.Gauges["frontier_width"] != 5 {
		t.Errorf("snapshot gauges wrong: %v", s.Gauges)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(TransitionsFired)
				r.MaxGauge(MaxFrontier, int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Get(TransitionsFired); got != workers*perWorker {
		t.Errorf("TransitionsFired = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge(MaxFrontier); got != perWorker-1 {
		t.Errorf("MaxFrontier = %d, want %d", got, perWorker-1)
	}
}

func TestLevelAccounting(t *testing.T) {
	r := New()
	r.Inc(StatesUnique) // initial configuration, before any level
	r.BeginLevel(1)
	r.Add(StatesUnique, 4)
	r.Add(DedupHits, 2)
	r.Add(TransitionsFired, 6)
	r.EndLevel()
	r.BeginLevel(4)
	r.Add(StatesUnique, 3)
	r.Add(TransitionsFired, 5)
	r.EndLevel()
	r.EndLevel() // unmatched: must be ignored

	s := r.Snapshot()
	if len(s.Levels) != 2 {
		t.Fatalf("levels = %d, want 2", len(s.Levels))
	}
	l0, l1 := s.Levels[0], s.Levels[1]
	if l0.Frontier != 1 || l0.Unique != 4 || l0.Dedup != 2 || l0.Edges != 6 {
		t.Errorf("level 0 stats wrong: %+v", l0)
	}
	if l1.Level != 1 || l1.Frontier != 4 || l1.Unique != 3 || l1.Edges != 5 {
		t.Errorf("level 1 stats wrong: %+v", l1)
	}
	if s.LevelLatency.Count != 2 {
		t.Errorf("level latency count = %d, want 2", s.LevelLatency.Count)
	}
	if s.Gauges["max_frontier"] != 4 {
		t.Errorf("max_frontier = %d, want 4", s.Gauges["max_frontier"])
	}
}

func TestPhasesAccumulate(t *testing.T) {
	r := New()
	stop := r.Phase("explore")
	time.Sleep(time.Millisecond)
	stop()
	r.Phase("explore")()
	r.Phase("abstract")()
	s := r.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(s.Phases))
	}
	if s.Phases[0].Name != "explore" || s.Phases[0].Count != 2 {
		t.Errorf("phase 0 = %+v", s.Phases[0])
	}
	if s.Phases[0].Nanos < int64(time.Millisecond) {
		t.Errorf("explore phase too short: %d ns", s.Phases[0].Nanos)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{500 * time.Nanosecond, 3 * time.Microsecond, 3 * time.Microsecond, time.Millisecond} {
		h.observeLocked(d)
	}
	st := h.snapshotLocked()
	if st.Count != 4 {
		t.Fatalf("count = %d, want 4", st.Count)
	}
	if st.MaxNanos != int64(time.Millisecond) {
		t.Errorf("max = %d", st.MaxNanos)
	}
	var total int64
	for _, b := range st.Buckets {
		total += b.Count
		if b.Le <= 0 {
			t.Errorf("non-positive bucket bound %d", b.Le)
		}
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Add(StatesUnique, 42)
	r.BeginLevel(1)
	r.Add(StatesUnique, 1)
	r.EndLevel()
	r.Phase("explore")()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["states_unique"] != 43 {
		t.Errorf("round-tripped states_unique = %d", back.Counters["states_unique"])
	}
	if len(back.Levels) != 1 || len(back.Phases) != 1 {
		t.Errorf("round-tripped levels/phases: %d/%d", len(back.Levels), len(back.Phases))
	}
}

func TestSnapshotTable(t *testing.T) {
	r := New()
	r.Add(StatesUnique, 10)
	r.Add(StubbornSingleton, 4)
	r.BeginLevel(2)
	r.EndLevel()
	r.Phase("explore")()
	out := r.Snapshot().String()
	for _, want := range []string{"states_unique", "stubborn_singleton", "phase explore", "levels (1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestProgressReporter(t *testing.T) {
	r := New()
	r.Add(StatesUnique, 100)
	r.SetGauge(FrontierWidth, 10)
	r.SetGauge(Level, 3)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := r.StartProgress(w, 5*time.Millisecond)
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no progress output within 2s")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "states=100") || !strings.Contains(out, "frontier=10") {
		t.Errorf("progress line content:\n%s", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// The scheduling-dependent counters — steal counts fed by the sched
// runtime's hooks, encoder-pool traffic, stale recomputes — must be
// flagged perf-only and stripped from the map determinism comparisons
// read, however large they get; deterministic counters must survive.
func TestPerfOnlyCountersExcludedFromDeterminism(t *testing.T) {
	perfOnly := []Counter{EncPoolHit, EncPoolMiss, FrontierSteals, AbsSteals, AbsStaleRecomputes,
		PipelineFusedSinks, AnalysisCacheHit, AnalysisCacheMiss}
	deterministic := []Counter{StatesUnique, StatesGenerated, DedupHits, TransitionsFired,
		TerminalsSeen, ErrorsSeen, CoarsenedSteps, AbsVisits, AbsJoins, AbsWidenings, AbsStates}
	for _, c := range perfOnly {
		if !c.PerfOnly() {
			t.Errorf("%s must be perf-only", c)
		}
	}
	for _, c := range deterministic {
		if c.PerfOnly() {
			t.Errorf("%s must not be perf-only", c)
		}
	}

	// Two registries with identical deterministic traffic but wildly
	// different scheduling counters must compare equal.
	a, b := New(), New()
	for _, r := range []*Registry{a, b} {
		r.Add(StatesUnique, 100)
		r.Add(TransitionsFired, 250)
	}
	a.Add(FrontierSteals, 7)
	a.Add(AbsSteals, 3)
	a.Add(EncPoolMiss, 12)
	a.Add(AnalysisCacheMiss, 2)
	b.Add(AbsStaleRecomputes, 5)
	b.Add(PipelineFusedSinks, 4)
	b.Add(AnalysisCacheHit, 9)
	got, want := a.Snapshot().DeterministicCounters(), b.Snapshot().DeterministicCounters()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deterministic counters differ despite identical deterministic traffic:\n  a %v\n  b %v", got, want)
	}
	for _, c := range perfOnly {
		if _, present := got[c.String()]; present {
			t.Errorf("perf-only counter %s leaked into the determinism map", c)
		}
	}
	if got[StatesUnique.String()] != 100 {
		t.Errorf("deterministic counter states_unique = %d, want 100", got[StatesUnique.String()])
	}

	// The pipeline-layer counters must render under their documented
	// snapshot keys (DESIGN.md §8), not counterN fallbacks.
	names := map[Counter]string{
		PipelineFusedSinks: "pipeline_fused_sinks",
		AnalysisCacheHit:   "analysis_cache_hit",
		AnalysisCacheMiss:  "analysis_cache_miss",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("counter name = %q, want %q", c.String(), want)
		}
	}
}
