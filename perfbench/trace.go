package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"psa/internal/abssem"
	"psa/internal/core"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
	"psa/internal/service"
)

// Span is one traced interval. Spans of one request share Req, the
// request's index in the stream.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced loop began
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// Start opens a span and returns its id.
func (t *Tracer) Start(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// Stop closes the span and returns its duration.
func (t *Tracer) Stop(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// Time runs f inside a span.
func (t *Tracer) Time(name string, parent, req int, f func()) time.Duration {
	id := t.Start(name, parent, req)
	f()
	return t.Stop(id)
}

// SelfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (t *Tracer) SelfTimes() map[string]time.Duration {
	children := map[int][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		covered, end := int64(0), s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// Write stores the spans as JSON lines.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Totals accumulates the traced run's sums under string keys.
type Totals struct {
	mu  sync.Mutex
	sum map[string]float64
}

func (t *Totals) Add(kv map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range kv {
		t.sum[k] += v
	}
}

func (t *Totals) Get(k string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[k]
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func (t *Totals) ratio(a, b string) float64 {
	if d := t.Get(b); d != 0 {
		return t.Get(a) / d
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// addRegistry folds a run's engine counters, gauges, and phase times
// into kv under prefix.
func addRegistry(kv map[string]float64, prefix string, reg *metrics.Registry) {
	snap := reg.Snapshot()
	for k, v := range snap.Counters {
		kv[prefix+k] += float64(v)
	}
	for k, v := range snap.Gauges {
		kv[prefix+k] += float64(v)
	}
	for _, p := range snap.Phases {
		kv[prefix+"phase:"+p.Name] += float64(p.Nanos) / 1e6
	}
}

// Replayer is the traced run's request path: each request's round trip
// to psad, then the same request replayed in process through the
// public function of every layer it crossed, each call in a span.
type Replayer struct {
	w    *Workload
	tr   *Tracer
	tot  *Totals
	pool *sched.Pool

	mu sync.Mutex
	// incs mirrors psad's per-options incremental sessions: each is fed
	// the same base-carrying requests psad's session ran.
	incs map[string]*pipeline.Incremental
	// stats sums /metrics over the psad lifetimes the loop went through.
	stats service.Stats
}

// scrape adds the current psad's /metrics bookkeeping to rp.stats.
func (rp *Replayer) scrape() error {
	if rp.w.srv == nil {
		return nil
	}
	st, err := rp.w.srv.Metrics()
	if err != nil {
		return err
	}
	rp.stats.Requests += st.Requests
	rp.stats.Runs += st.Runs
	rp.stats.CoalesceHits += st.CoalesceHits
	rp.stats.CacheHits += st.CacheHits
	rp.stats.IncrementalRuns += st.IncrementalRuns
	return nil
}

func newReplayer(w *Workload) *Replayer {
	return &Replayer{
		w:    w,
		tr:   &Tracer{t0: time.Now()},
		tot:  &Totals{sum: map[string]float64{}},
		pool: sched.ForWorkers(w.Spec.Config.Workers),
		incs: map[string]*pipeline.Incremental{},
	}
}

// Do is the traced counterpart of Workload.Do.
func (rp *Replayer) Do(i int, req *Request) (time.Duration, error) {
	if req.Restart {
		if err := rp.scrape(); err != nil {
			return 0, err
		}
		if err := rp.w.restart(req); err != nil {
			return 0, err
		}
		rp.mu.Lock()
		rp.incs = map[string]*pipeline.Incremental{}
		rp.mu.Unlock()
	}
	root := rp.tr.Start("request", 0, i)
	defer rp.tr.Stop(root)
	if rp.w.srv == nil {
		return rp.doReport(root, i, req)
	}
	rt := rp.tr.Start("service.roundtrip", root, i)
	status, resp, n, err := rp.w.srv.Post(req.Body)
	took := rp.tr.Stop(rt)
	if err != nil {
		return took, fmt.Errorf("%s: %w", req.Entry.Name, err)
	}
	if err := rp.w.Check.Response(req.Entry, status, &resp); err != nil {
		return took, err
	}
	rep := rp.tr.Start("replay", root, i)
	kv, served := rp.replay(rep, i, req, &resp)
	rp.tr.Stop(rep)
	kv["n:req"]++
	kv["ms:roundtrip"] += ms(took)
	kv["ms:self"] += ms(took) - served
	kv["bytes:response"] += float64(n)
	rp.tot.Add(kv)
	return took, nil
}

func (rp *Replayer) incremental(key string, adjust func(*abssem.Options)) *pipeline.Incremental {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	inc, ok := rp.incs[key]
	if !ok {
		inc = pipeline.NewIncremental(pipeline.RunOptions{}, adjust)
		rp.incs[key] = inc
	}
	return inc
}

// replay re-executes what psad did for the request and returns the sums
// plus served, the milliseconds of the lang, engine, render, and encode
// spans — the part of the round trip that is not service's own.
func (rp *Replayer) replay(parent, i int, req *Request, resp *service.Response) (map[string]float64, float64) {
	tr, kv := rp.tr, map[string]float64{}
	var sreq service.Request
	kv["ms:decode"] += ms(tr.Time("service.decode", parent, i, func() {
		_ = json.Unmarshal(req.Body, &sreq) // psad decoded this body already
	}))
	encode := func() float64 {
		d := ms(tr.Time("service.encode", parent, i, func() {
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetIndent("", "  ")
			_ = enc.Encode(resp) // encoding into a buffer cannot fail
		}))
		kv["ms:encode"] += d
		return d
	}
	if resp.Cached || resp.Coalesced {
		return kv, encode()
	}

	var prog *lang.Program
	lex := ms(tr.Time("lang.lex", parent, i, func() { _, _ = lang.Lex(sreq.Program) }))
	parse := ms(tr.Time("lang.parse", parent, i, func() { prog, _ = lang.ParseOnly(sreq.Program) }))
	resolve := ms(tr.Time("lang.resolve", parent, i, func() { _ = lang.Resolve(prog) }))
	hash := ms(tr.Time("lang.hash", parent, i, func() { lang.HashProgram(prog).ProgramHash(sreq.Options.ClanFold) }))
	kv["n:lang"]++
	kv["ms:lex"] += lex
	kv["ms:parse"] += parse - lex
	kv["ms:resolve"] += resolve
	kv["ms:hash"] += hash
	served := parse + resolve + hash

	o := sreq.Options
	ro, adjust := runOptions(req.Entry, rp.w.Spec.Config.Workers, rp.pool)
	ctx := context.Background()
	if sreq.Analysis == "explore" {
		ro.Metrics = metrics.New()
		var res *explore.Result
		before := ReadUsage().alloc
		d := ms(tr.Time("explore", parent, i, func() { res = pipeline.ExploreContext(ctx, prog, ro) }))
		kv["alloc:explore"] += float64(ReadUsage().alloc - before)
		kv["n:explore"]++
		kv["ms:explore"] += d
		addRegistry(kv, "explore:", ro.Metrics)
		r := ms(tr.Time("render", parent, i, func() {
			_ = res.String()
			if o.Outcomes {
				_ = res.TerminalStoreSet()
			}
		}))
		return kv, served + d + r + encode()
	}

	scratch := func(name string) (*abssem.Result, float64) {
		ro := ro
		ro.Metrics = metrics.New()
		var res *abssem.Result
		before := ReadUsage().alloc
		d := ms(tr.Time(name, parent, i, func() { res = pipeline.AnalyzeContext(ctx, prog, ro, adjust) }))
		kv["alloc:abs"] += float64(ReadUsage().alloc - before)
		kv["n:abs"]++
		kv["ms:abs"] += d
		addRegistry(kv, "abs:", ro.Metrics)
		return res, d
	}
	var res *abssem.Result
	var engine float64
	if sreq.Base != "" {
		ro.Metrics = metrics.New()
		inc := rp.incremental(fmt.Sprintf("%s|%+v", sreq.Analysis, o), adjust)
		engine = ms(tr.Time("pipeline.edit_warm", parent, i, func() { res = inc.Configure(ro).AnalyzeEditContext(ctx, prog) }))
		addRegistry(kv, "warm:", ro.Metrics)
		_, cold := scratch("pipeline.edit_scratch")
		kv["n:warm"]++
		kv["ms:warm"] += engine
		kv["ms:scratch"] += cold
	} else {
		res, engine = scratch("abssem.analyze")
	}
	r := ms(tr.Time("abssem.render", parent, i, func() { _ = res.String() }))
	kv["n:render"]++
	kv["ms:render"] += r
	return kv, served + engine + r + encode()
}

func parseReduction(s string) (core.Reduction, bool) {
	switch s {
	case "", "full":
		return core.Full, true
	case "stubborn":
		return core.Stubborn, true
	}
	return 0, false
}

// doReport traces one report: the CLI path itself, then the Analyzer
// methods Report calls, in Report's order, on a fresh Analyzer.
func (rp *Replayer) doReport(root, i int, req *Request) (time.Duration, error) {
	tr := rp.tr
	var text string
	var err error
	took := tr.Time("core.report", root, i, func() { text, err = report(req.Entry.Src) })
	if err != nil {
		return took, fmt.Errorf("%s: %w", req.Entry.Name, err)
	}
	if err := rp.w.Check.Report(req.Entry, text); err != nil {
		return took, err
	}
	rep := tr.Start("replay", root, i)
	defer tr.Stop(rep)
	kv := map[string]float64{"n:report": 1, "ms:report": ms(took)}
	var a *core.Analyzer
	kv["ms:parse"] += ms(tr.Time("lang.parse", rep, i, func() { a, err = core.Parse(req.Entry.Src) }))
	if err != nil {
		return took, fmt.Errorf("%s: %w", req.Entry.Name, err)
	}
	defer a.Close()
	reg := metrics.New()
	a.Configure(core.RunOptions{Metrics: reg})
	kv["ms:core.explore"] += ms(tr.Time("core.explore", rep, i, func() {
		for _, o := range []core.ExploreOptions{
			{Reduction: core.Full},
			{Reduction: core.Full, Coarsen: true},
			{Reduction: core.Stubborn},
			{Reduction: core.Stubborn, Coarsen: true},
		} {
			a.Explore(o)
		}
	}))
	kv["ms:core.collect"] += ms(tr.Time("core.collect", rep, i, func() { a.Anomalies() }))
	kv["ms:apps"] += ms(tr.Time("apps", rep, i, func() { applications(a) }))
	kv["ms:core.abstract"] += ms(tr.Time("core.abstract", rep, i, func() { a.Abstract() }))
	addRegistry(kv, "core:", reg)
	rp.tot.Add(kv)
	return took, nil
}

// applications calls what Report asks of the collected artifacts:
// dependences and the finest schedule over all labels, placements of
// labeled allocations, deallocation lists, and function purity.
func applications(a *core.Analyzer) {
	labels := a.Prog.SortedLabels()
	if len(labels) >= 2 {
		a.Dependences(labels...)
		a.Parallelize(labels...)
	}
	var allocs []string
	for _, l := range labels {
		found := false
		if s := a.Prog.StmtByLabel(l); s != nil {
			lang.WalkExprs(s, func(e lang.Expr) {
				if _, ok := e.(*lang.MallocExpr); ok {
					found = true
				}
			})
		}
		if found {
			allocs = append(allocs, l)
		}
	}
	if len(allocs) > 0 {
		a.Placements(allocs...)
	}
	a.DeallocationLists()
	for _, f := range a.Prog.Funcs {
		if f.Name != "main" {
			a.PureCall(f.Name)
		}
	}
}

// RunTraced is the traced run. It measures the untraced loop again
// (with a CPU profile), then the traced loop on a fresh set-up, then the
// unit-cost probes, and prints the per-layer metrics.
func RunTraced(opts Options, ans Answers) (*Result, error) {
	w, err := Prepare(opts, ans)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	half := secs(opts.Seconds / 2)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	plain := RunLoop(w.Stream, w.Spec.Clients, half, 1, false, w.Do)
	pprof.StopCPUProfile()
	cpu, err := Attribute(prof.Bytes())
	if err != nil {
		return nil, err
	}

	w.Close()
	if _, err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rp := newReplayer(w)
	defer rp.pool.Close()
	traced := RunLoop(w.Stream, w.Spec.Clients, half, 1, false, rp.Do)
	if err := rp.scrape(); err != nil {
		return nil, err
	}
	probes := RunProbes(w, opts)

	m := perLayer(rp.tot, cpu, rp.stats, plain, traced, probes)
	if err := writeTrace(opts, rp.tr, cpu); err != nil {
		return nil, err
	}
	res := &Result{
		Correct:   plain.Failed == 0 && traced.Failed == 0,
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Metrics:   m,
	}
	fmt.Fprint(os.Stderr, describe(opts, res, traced, w))
	return res, nil
}

// writeTrace writes the span file, the per-name self times, and the CPU
// attribution under opts.Out.
func writeTrace(opts Options, tr *Tracer, cpu map[string]int64) error {
	if err := os.MkdirAll(opts.Out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(opts.Out, fmt.Sprintf("%s-seed%d", opts.Workload, opts.Seed))
	if err := tr.Write(base + ".spans.jsonl"); err != nil {
		return err
	}
	self := map[string]float64{}
	for k, v := range tr.SelfTimes() {
		self[k] = ms(v)
	}
	b, err := json.MarshalIndent(map[string]any{"self_ms": self, "cpu_samples": cpu}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", append(b, '\n'), 0o644)
}
