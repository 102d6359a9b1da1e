package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/pipeline"
	"psa/internal/sched"
	"psa/internal/sem"
	"psa/internal/service"
	"psa/internal/workloads"
)

// layerMetrics are the traced run's per-layer metrics, in report order.
// BENCHMARK.json's per_layer list carries the same names and units.
var layerMetrics = []struct{ name, unit, better string }{
	{"service.roundtrip_ms", "ms", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.decode_ms", "ms", "lower"},
	{"service.encode_ms", "ms", "lower"},
	{"service.response_bytes", "bytes", "lower"},
	{"service.cache_hit_frac", "frac", "higher"},
	{"service.runs_per_request", "ratio", "lower"},
	{"service.coalesce_hits", "count", "higher"},
	{"service.incremental_runs", "count", "higher"},
	{"lang.lex_ms", "ms", "lower"},
	{"lang.parse_ms", "ms", "lower"},
	{"lang.resolve_ms", "ms", "lower"},
	{"lang.hash_ms", "ms", "lower"},
	{"lang.share", "frac", "lower"},
	{"lang.sharing_ms", "ms", "lower"},
	{"pipeline.edit_warm_ms", "ms", "lower"},
	{"pipeline.edit_scratch_ms", "ms", "lower"},
	{"pipeline.edit_warm_over_scratch", "ratio", "lower"},
	{"abssem.summary_hit_frac", "frac", "higher"},
	{"explore.states_per_s", "1/s", "higher"},
	{"explore.alloc_bytes_per_state", "bytes", "lower"},
	{"explore.visited_bytes_per_state", "bytes", "lower"},
	{"explore.dedup_frac", "frac", "lower"},
	{"explore.transitions_per_state", "ratio", "lower"},
	{"explore.stubborn_singleton_frac", "frac", "higher"},
	{"sem.step_cpu_frac", "frac", "lower"},
	{"sem.clone_cpu_frac", "frac", "lower"},
	{"sem.encode_cpu_frac", "frac", "lower"},
	{"explore.visited_cpu_frac", "frac", "lower"},
	{"explore.stubborn_cpu_frac", "frac", "lower"},
	{"sem.step_ns", "ns", "lower"},
	{"sem.fingerprint_ns", "ns", "lower"},
	{"sem.encode_ns", "ns", "lower"},
	{"sem.next_access_ns", "ns", "lower"},
	{"sem.step_alloc_bytes", "bytes", "lower"},
	{"abssem.states_per_s", "1/s", "higher"},
	{"abssem.visits_per_state", "ratio", "lower"},
	{"abssem.joins_per_visit", "ratio", "lower"},
	{"abssem.widenings_per_state", "ratio", "lower"},
	{"abssem.transfer_cpu_frac", "frac", "lower"},
	{"abssem.join_cpu_frac", "frac", "lower"},
	{"abssem.signature_cpu_frac", "frac", "lower"},
	{"abssem.collect_cpu_frac", "frac", "lower"},
	{"abssem.summary_cpu_frac", "frac", "lower"},
	{"abssem.alloc_bytes_per_state", "bytes", "lower"},
	{"abssem.live_bytes_per_state", "bytes", "lower"},
	{"abssem.render_ms", "ms", "lower"},
	{"sched.explore_speedup_w2", "ratio", "higher"},
	{"sched.abssem_speedup_w2", "ratio", "higher"},
	{"sched.abssem_merge_frac", "frac", "lower"},
	{"abssem.stale_recompute_frac", "frac", "lower"},
	{"sched.steals_per_state", "ratio", "lower"},
	{"core.explore_ms", "ms", "lower"},
	{"core.collect_ms", "ms", "lower"},
	{"core.abstract_ms", "ms", "lower"},
	{"apps.ms", "ms", "lower"},
	{"analysis.sink_ms", "ms", "lower"},
	{"core.cache_hit_frac", "frac", "higher"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.gc_cycles_per_req", "count", "lower"},
	{"trace.untraced_rps", "1/s", "higher"},
	{"trace.traced_rps", "1/s", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

// cpuLayers maps the CPU-fraction metrics to the layers Attribute
// charges samples to.
var cpuLayers = map[string]string{
	"sem.step_cpu_frac":         "sem.step",
	"sem.clone_cpu_frac":        "sem.clone",
	"sem.encode_cpu_frac":       "sem.encode",
	"explore.visited_cpu_frac":  "explore.visited",
	"explore.stubborn_cpu_frac": "explore.stubborn",
	"abssem.transfer_cpu_frac":  "abssem.transfer",
	"abssem.join_cpu_frac":      "abssem.join",
	"abssem.signature_cpu_frac": "abssem.signature",
	"abssem.collect_cpu_frac":   "abssem.collect",
	"abssem.summary_cpu_frac":   "abssem.summary",
}

// perLayer derives every per-layer metric; one a workload does not
// exercise reads 0.
func perLayer(t *Totals, cpu map[string]int64, st service.Stats, plain, traced *LoopResult, probes map[string]float64) map[string]Metric {
	v := map[string]float64{
		"service.roundtrip_ms":     t.ratio("ms:roundtrip", "n:req"),
		"service.self_ms":          t.ratio("ms:self", "n:req"),
		"service.decode_ms":        t.ratio("ms:decode", "n:req"),
		"service.encode_ms":        t.ratio("ms:encode", "n:req"),
		"service.response_bytes":   t.ratio("bytes:response", "n:req"),
		"service.coalesce_hits":    float64(st.CoalesceHits),
		"service.incremental_runs": float64(st.IncrementalRuns),
		"lang.lex_ms":              t.ratio("ms:lex", "n:lang"),
		"lang.parse_ms":            t.ratio("ms:parse", "n:lang"),
		"lang.resolve_ms":          t.ratio("ms:resolve", "n:lang"),
		"lang.hash_ms":             t.ratio("ms:hash", "n:lang"),

		"pipeline.edit_warm_ms":           t.ratio("ms:warm", "n:warm"),
		"pipeline.edit_scratch_ms":        t.ratio("ms:scratch", "n:warm"),
		"pipeline.edit_warm_over_scratch": t.ratio("ms:warm", "ms:scratch"),

		"explore.alloc_bytes_per_state":   t.ratio("alloc:explore", "explore:states_unique"),
		"explore.visited_bytes_per_state": t.ratio("explore:visited_bytes", "explore:states_unique"),
		"explore.dedup_frac":              t.ratio("explore:dedup_hits", "explore:states_generated"),
		"explore.transitions_per_state":   t.ratio("explore:transitions_fired", "explore:states_unique"),

		"abssem.visits_per_state":      t.ratio("abs:abs_visits", "abs:abs_states"),
		"abssem.joins_per_visit":       t.ratio("abs:abs_joins", "abs:abs_visits"),
		"abssem.widenings_per_state":   t.ratio("abs:abs_widenings", "abs:abs_states"),
		"abssem.alloc_bytes_per_state": t.ratio("alloc:abs", "abs:abs_states"),
		"abssem.render_ms":             t.ratio("ms:render", "n:render"),
		"abssem.stale_recompute_frac":  t.ratio("abs:abs_stale_recomputes", "abs:abs_visits"),

		"core.explore_ms":  t.ratio("ms:core.explore", "n:report"),
		"core.collect_ms":  t.ratio("ms:core.collect", "n:report"),
		"core.abstract_ms": t.ratio("ms:core.abstract", "n:report"),
		"apps.ms":          t.ratio("ms:apps", "n:report"),
	}
	if st.Requests > 0 {
		v["service.cache_hit_frac"] = float64(st.CacheHits) / float64(st.Requests)
		v["service.runs_per_request"] = float64(st.Runs) / float64(st.Requests)
	}
	lang := t.Get("ms:lex") + t.Get("ms:parse") + t.Get("ms:resolve") + t.Get("ms:hash")
	if rt := t.Get("ms:roundtrip") + t.Get("ms:report"); rt > 0 {
		v["lang.share"] = lang / rt
	}
	if d := t.Get("ms:explore"); d > 0 {
		v["explore.states_per_s"] = t.Get("explore:states_unique") / (d / 1000)
	}
	if d := t.Get("ms:abs"); d > 0 {
		v["abssem.states_per_s"] = t.Get("abs:abs_states") / (d / 1000)
	}
	frac := func(k string, parts ...string) float64 {
		total := 0.0
		for _, p := range parts {
			total += t.Get(p)
		}
		if total == 0 {
			return 0
		}
		return t.Get(k) / total
	}
	v["abssem.summary_hit_frac"] = frac("warm:summary_hit", "warm:summary_hit", "warm:summary_miss")
	v["explore.stubborn_singleton_frac"] = frac("explore:stubborn_singleton",
		"explore:stubborn_singleton", "explore:stubborn_partial", "explore:stubborn_full_fallback")
	v["sched.abssem_merge_frac"] = frac("abs:phase:abstract-merge", "abs:phase:abstract-expand", "abs:phase:abstract-merge")
	v["core.cache_hit_frac"] = frac("core:analysis_cache_hit", "core:analysis_cache_hit", "core:analysis_cache_miss")
	if s := t.Get("explore:states_unique") + t.Get("abs:abs_states"); s > 0 {
		v["sched.steals_per_state"] = (t.Get("explore:frontier_steals") + t.Get("abs:abs_steals")) / s
	}
	if n := t.Get("n:report"); n > 0 {
		sinks := 0.0
		for k, x := range t.sum {
			if strings.HasPrefix(k, "core:phase:sink:") {
				sinks += x
			}
		}
		v["analysis.sink_ms"] = sinks / n
	}

	var samples int64
	for _, n := range cpu {
		samples += n
	}
	for name, layer := range cpuLayers {
		if samples > 0 {
			v[name] = float64(cpu[layer]) / float64(samples)
		}
	}

	if cpuS := plain.After.totalCPU - plain.Before.totalCPU; cpuS > 0 {
		v["runtime.gc_cpu_frac"] = (plain.After.gcCPU - plain.Before.gcCPU) / cpuS
	}
	if n := plain.Completed(); n > 0 {
		v["runtime.gc_cycles_per_req"] = float64(plain.After.gcCycles-plain.Before.gcCycles) / float64(n)
	}
	untraced := float64(plain.Completed()) / plain.Seconds()
	tracedRPS := float64(traced.Completed()) / traced.Seconds()
	v["trace.untraced_rps"] = untraced
	v["trace.traced_rps"] = tracedRPS
	if untraced > 0 {
		v["trace.overhead_frac"] = 1 - tracedRPS/untraced
	}
	for k, x := range probes {
		v[k] = x
	}

	out := make(map[string]Metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = Metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// RunProbes measures the unit costs no public boundary of a request
// splits out, on this workload's inputs, within a time budget.
func RunProbes(w *Workload, opts Options) map[string]float64 {
	out := map[string]float64{"lang.sharing_ms": sharingProbe(w.Stream)}
	budget := secs(opts.Seconds / 8)
	switch w.Name {
	case "explore-philo":
		semProbe(opts.Seed, out)
		out["sched.explore_speedup_w2"] = speedup(w.Stream, "explore", budget)
	case "abstract-edit":
		out["sched.abssem_speedup_w2"] = speedup(w.Stream, "abstract", budget)
		out["abssem.live_bytes_per_state"] = liveBytes(w.Stream, 6)
	case "service-mix":
		out["sched.explore_speedup_w2"] = speedup(w.Stream, "explore", budget/2)
		out["sched.abssem_speedup_w2"] = speedup(w.Stream, "abstract", budget/2)
		out["abssem.live_bytes_per_state"] = liveBytes(w.Stream, 6)
	}
	return out
}

// distinct yields the stream's distinct entries in order of first use.
func distinct(stream []*Request, keep func(*Entry) bool) []*Entry {
	seen := map[*Entry]bool{}
	var out []*Entry
	for _, r := range stream {
		if !seen[r.Entry] && keep(r.Entry) {
			seen[r.Entry] = true
			out = append(out, r.Entry)
		}
	}
	return out
}

// runOptions maps an entry's request options onto the pipeline's, as
// psad does.
func runOptions(e *Entry, workers int, pool *sched.Pool) (pipeline.RunOptions, func(*abssem.Options)) {
	o := e.Options
	red, _ := parseReduction(o.Reduction)
	ro := pipeline.RunOptions{Reduction: red, Coarsen: o.Coarsen, Workers: workers, Pool: pool,
		MaxConfigs: o.MaxConfigs, ExactKeys: o.ExactKeys}
	return ro, func(ao *abssem.Options) {
		if o.Domain != "" {
			ao.Domain = absdom.DomainByName(o.Domain)
		}
		ao.ClanFold = o.ClanFold
	}
}

// speedup runs the stream's first distinct entries of one analysis at
// workers 0 and at workers 2 until the budget is spent, and returns the
// summed engine time at 0 over that at 2.
func speedup(stream []*Request, analysis string, budget time.Duration) float64 {
	pool := sched.ForWorkers(2)
	defer pool.Close()
	var seq, par time.Duration
	start := time.Now()
	for _, e := range distinct(stream, func(e *Entry) bool { return e.Analysis == analysis }) {
		if time.Since(start) > budget && par > 0 {
			break
		}
		prog, err := lang.Parse(e.Src)
		if err != nil {
			continue // every entry parses; checked when the universe is built
		}
		for _, workers := range []int{0, 2} {
			ro, adjust := runOptions(e, workers, nil)
			if workers == 2 {
				ro.Pool = pool
			}
			t := time.Now()
			if analysis == "explore" {
				pipeline.ExploreContext(context.Background(), prog, ro)
			} else {
				pipeline.AnalyzeContext(context.Background(), prog, ro, adjust)
			}
			if workers == 0 {
				seq += time.Since(t)
			} else {
				par += time.Since(t)
			}
		}
	}
	if par == 0 {
		return 0
	}
	return seq.Seconds() / par.Seconds()
}

var liveSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

func liveHeap() uint64 {
	runtime.GC()
	s := append([]metrics.Sample(nil), liveSample...)
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveBytes is the heap a held abstract Result retains after GC, per
// abstract state, over the stream's first n distinct abstract entries.
func liveBytes(stream []*Request, n int) float64 {
	var live, states float64
	for _, e := range distinct(stream, func(e *Entry) bool { return e.Analysis == "abstract" }) {
		if n == 0 {
			break
		}
		n--
		prog, err := lang.Parse(e.Src)
		if err != nil {
			continue // every entry parses; checked when the universe is built
		}
		ro, adjust := runOptions(e, 0, nil)
		before := liveHeap()
		res := pipeline.AnalyzeContext(context.Background(), prog, ro, adjust)
		after := liveHeap()
		runtime.KeepAlive(res)
		if after > before {
			live += float64(after - before)
		}
		states += float64(res.States)
	}
	if states == 0 {
		return 0
	}
	return live / states
}

// sharingProbe is the mean time of lang.AnalyzeSharing over the
// stream's first distinct programs.
func sharingProbe(stream []*Request) float64 {
	seen := map[string]bool{}
	var total time.Duration
	calls := 0
	for _, e := range distinct(stream, func(*Entry) bool { return true }) {
		if seen[e.Src] || len(seen) == 32 {
			continue
		}
		seen[e.Src] = true
		prog, err := lang.Parse(e.Src)
		if err != nil {
			continue // every entry parses; checked when the universe is built
		}
		t := time.Now()
		for i := 0; i < 5; i++ {
			lang.AnalyzeSharing(prog)
		}
		total += time.Since(t)
		calls += 5
	}
	if calls == 0 {
		return 0
	}
	return ms(total) / float64(calls)
}

// semProbe times the public sem API on configurations a seeded random
// walk over Philosophers(5) reaches: the median over five rounds of the
// mean cost of each call, and the bytes StepQuiet allocates per call.
func semProbe(seed int64, out map[string]float64) {
	prog := workloads.Philosophers(5)
	r := rand.New(rand.NewSource(seed))
	type point struct {
		c    *sem.Config
		proc int
	}
	var pts []point
	c := sem.NewConfig(prog)
	for len(pts) < 2000 {
		en := c.Enabled()
		if len(en) == 0 {
			c = sem.NewConfig(prog)
			continue
		}
		p := en[r.Intn(len(en))]
		pts = append(pts, point{c, p})
		c = c.StepQuiet(p).Config
	}
	per := func(f func(point)) float64 {
		var rounds []float64
		for round := 0; round < 5; round++ {
			t := time.Now()
			for _, p := range pts {
				f(p)
			}
			rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(len(pts)))
		}
		sort.Float64s(rounds)
		return rounds[len(rounds)/2]
	}
	out["sem.step_ns"] = per(func(p point) { p.c.StepQuiet(p.proc) })
	out["sem.fingerprint_ns"] = per(func(p point) { p.c.Fingerprint() })
	out["sem.encode_ns"] = per(func(p point) { p.c.Encode() })
	out["sem.next_access_ns"] = per(func(p point) { p.c.NextAccess(p.proc) })
	before := ReadUsage().alloc
	for _, p := range pts {
		p.c.StepQuiet(p.proc)
	}
	out["sem.step_alloc_bytes"] = float64(ReadUsage().alloc-before) / float64(len(pts))
}
