// Package service is the analysis-as-a-service layer behind cmd/psad:
// an http.Handler that accepts cobegin programs plus run options as
// JSON, executes them through one process-wide worker pool, and serves
// the results the engines' determinism contract makes cacheable.
//
// Three properties organize the design:
//
//   - One pool, many runs. Every analysis executes on the service's
//     shared sched.Pool; concurrent submissions interleave on the same
//     persistent workers instead of spawning goroutines per request.
//     Workers and scheduler choice are server-side, execution-only
//     configuration — by the engines' determinism contract they never
//     change results, so they are not part of a request.
//
//   - Coalescing and caching by result identity. Two requests with the
//     same program identity and the same result-relevant options must
//     produce bit-identical responses, so an in-flight run is shared by
//     every identical request that arrives before it completes (one
//     engine run, N responses), and completed results are cached by the
//     same key. An abstract request's program identity is its canonical
//     hash (lang.HashProgram; the named mode under clan folding, the
//     α-renamed one otherwise): an abstract response renders only
//     counts, may_error, and that hash, so every α-equivalent
//     resubmission — a local rename, a reformat, a label edit — is served
//     from the cache, whichever client sent it. An explore request's
//     identity is the sha256 of its program text, because its outcomes
//     carry source positions no canonical hash covers. A request
//     detaching (client disconnect) decrements the flight's reference
//     count; when the last requester detaches, the run's context is
//     cancelled and the work stops at the engine's next merge boundary.
//
//   - Cancellation is truncation. A cancelled run returns the engines'
//     coherent partial result (Cancelled set, same cut shape as the
//     MaxConfigs/MaxStates truncation). Because the cut point is
//     timing-dependent, cancelled results never enter the cache.
//
// The completed-result cache is bounded (Config.CacheMax) with
// least-recently-used eviction; evictions are counted in Stats.
package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// Request is one analysis submission.
type Request struct {
	// Program is the cobegin source text to analyze.
	Program string `json:"program"`
	// Analysis selects the engine: "explore" (the concrete explorer,
	// the default) or "abstract" (the abstract fixpoint engine).
	Analysis string `json:"analysis,omitempty"`
	// Options are the result-relevant run options. Execution-only
	// configuration (workers, scheduler) is server-side.
	Options Options `json:"options,omitempty"`
	// Base is the ProgramHash of a previously analyzed version this
	// program is an edit of. It is accepted and ignored: the result
	// cache already serves any α-equivalent abstract submission, and an
	// edit that changes the canonical hash runs from scratch. Only
	// Stats.IncrementalRuns counts it.
	Base string `json:"base,omitempty"`
}

// Options is the result-relevant subset of pipeline.RunOptions plus the
// abstract engine's domain knobs — exactly the fields that can change
// what a run computes. Zero values select the engines' defaults.
type Options struct {
	// Reduction selects concrete expansion: "full" (default) or
	// "stubborn".
	Reduction string `json:"reduction,omitempty"`
	// Coarsen enables virtual coarsening of non-critical runs.
	Coarsen bool `json:"coarsen,omitempty"`
	// MaxConfigs caps distinct configurations (explore) or abstract
	// states (abstract); 0 selects the engine default.
	MaxConfigs int `json:"max_configs,omitempty"`
	// ExactKeys stores full canonical keys in the concrete visited set.
	ExactKeys bool `json:"exact_keys,omitempty"`
	// Domain selects the abstract domain: "const" (default), "sign", or
	// "interval". Abstract runs only.
	Domain string `json:"domain,omitempty"`
	// ClanFold folds identical cobegin arms during abstract
	// interpretation.
	ClanFold bool `json:"clan_fold,omitempty"`
	// Outcomes includes the canonical terminal-outcome set in explore
	// responses (explore.Result.TerminalStoreSet).
	Outcomes bool `json:"outcomes,omitempty"`
}

// Response is one analysis result. Summary is the engine Result's
// String() rendering — bit-identical to what cmd/psa prints for the
// same program and options at any worker count.
type Response struct {
	Analysis  string `json:"analysis"`
	Summary   string `json:"summary"`
	States    int    `json:"states"`
	Edges     int    `json:"edges,omitempty"`
	Visits    int    `json:"visits,omitempty"`
	Terminals int    `json:"terminals"`
	Errors    int    `json:"errors,omitempty"`
	MayError  bool   `json:"may_error,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	// Cancelled marks a partial result: the run's context was cancelled
	// (service shutdown) before completion. The artifacts cover the
	// explored prefix coherently but the cut is timing-dependent, so
	// the result was not cached.
	Cancelled bool     `json:"cancelled,omitempty"`
	Outcomes  []string `json:"outcomes,omitempty"`
	// ProgramHash identifies the analyzed program version: for abstract
	// runs under the options' hash mode (the named hash under clan
	// folding, the α-renamed one otherwise), for explore runs the
	// α-renamed hash.
	ProgramHash string `json:"program_hash,omitempty"`
	// Coalesced marks a response served by attaching to another
	// request's in-flight run; Cached one served from the completed-
	// result cache. Per-request bookkeeping, not part of the result.
	Coalesced bool   `json:"coalesced,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Stats is a snapshot of the service's request bookkeeping, exposed for
// tests and the /metrics endpoint.
type Stats struct {
	Requests      int64 `json:"requests"`
	Runs          int64 `json:"runs"`
	RunsCancelled int64 `json:"runs_cancelled"`
	CoalesceHits  int64 `json:"coalesce_hits"`
	CacheHits     int64 `json:"cache_hits"`
	// CacheEvictions counts completed results dropped from the bounded
	// result cache (least recently used first, see Config.CacheMax).
	CacheEvictions int64 `json:"cache_evictions"`
	// IncrementalRuns counts abstract runs whose request carried a base
	// program hash (which the service otherwise ignores).
	IncrementalRuns int64 `json:"incremental_runs"`
	Inflight        int   `json:"inflight"`
}

// Config configures a Service.
type Config struct {
	// Workers sizes the shared pool both engines run on (0/1
	// sequential, negative GOMAXPROCS).
	Workers int
	// Sched selects the parallel scheduler for every run.
	Sched sched.Scheduler
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// CacheMax bounds the completed-result cache: at most CacheMax
	// results are retained, evicting the least recently used (0 selects
	// the default of 1024; negative disables the bound).
	CacheMax int
}

// Service executes analysis requests on one shared pool with in-flight
// coalescing and an options-keyed result cache. Create with New, serve
// via Handler, release with Close.
type Service struct {
	cfg  Config
	pool *sched.Pool

	// base is the parent of every run context; Close cancels it so
	// in-flight runs stop at their next merge boundary.
	base   context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	flights map[string]*flight
	// Completed-result cache: map into an LRU list whose front is the
	// most recently used entry; inserts past cfg.CacheMax evict the back.
	cache    map[string]*list.Element
	lru      *list.List // of *cacheEntry
	stats    Stats
	counters map[string]int64 // engine counters aggregated across runs
	closed   bool
}

// cacheEntry is one completed result in the LRU list.
type cacheEntry struct {
	key string
	out *outcome
}

// flight is one in-flight engine run shared by every coalesced request.
type flight struct {
	done   chan struct{} // closed when out is set
	out    *outcome
	refs   int // attached requests; last detach cancels the run
	cancel context.CancelFunc
}

// outcome is a completed run: the shared response body (before
// per-request Coalesced/Cached flags) and its HTTP status.
type outcome struct {
	resp   Response
	status int
}

// New builds a Service with its own worker pool.
func New(cfg Config) *Service {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.CacheMax == 0 {
		cfg.CacheMax = 1024
	}
	base, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:      cfg,
		pool:     sched.ForWorkers(cfg.Workers),
		base:     base,
		cancel:   cancel,
		flights:  map[string]*flight{},
		cache:    map[string]*list.Element{},
		lru:      list.New(),
		counters: map[string]int64{},
	}
}

// Close cancels every in-flight run and releases the worker pool. Runs
// observe the cancellation at their next merge boundary, return partial
// results to any still-attached clients, and drain before the pool
// closes. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	inflight := make([]*flight, 0, len(s.flights))
	for _, f := range s.flights {
		inflight = append(inflight, f)
	}
	s.mu.Unlock()
	if already {
		return
	}
	s.cancel()
	for _, f := range inflight {
		<-f.done
	}
	s.pool.Close()
}

// Stats returns a snapshot of the request bookkeeping.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Inflight = len(s.flights)
	return st
}

// Handler returns the service's HTTP routes:
//
//	POST /analyze  submit a Request, receive a Response
//	GET  /healthz  liveness probe
//	GET  /metrics  service stats + aggregated engine counters (JSON)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metricsBody is the /metrics JSON shape: request bookkeeping plus the
// engine counters aggregated across every completed run (each run has
// its own metrics.Registry — the per-level stats are single-run state —
// and its counter snapshot folds in here on completion).
type metricsBody struct {
	Service  Stats            `json:"service"`
	Counters map[string]int64 `json:"counters"`
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := metricsBody{Service: s.stats, Counters: make(map[string]int64, len(s.counters))}
	body.Service.Inflight = len(s.flights)
	for k, v := range s.counters {
		body.Counters[k] = v
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "POST only"})
		return
	}
	var req Request
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "read body: " + err.Error()})
		return
	}
	if int64(len(body)) > s.cfg.MaxBody {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			Response{Error: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBody)})
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "decode request: " + err.Error()})
		return
	}
	key, prog, err := requestKey(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Analysis: req.Analysis, Error: err.Error()})
		return
	}

	s.mu.Lock()
	s.stats.Requests++
	if s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, Response{Error: "service shutting down"})
		return
	}
	if elem, ok := s.cache[key]; ok {
		s.stats.CacheHits++
		s.lru.MoveToFront(elem)
		out := elem.Value.(*cacheEntry).out
		s.mu.Unlock()
		resp := out.resp
		resp.Cached = true
		writeJSON(w, out.status, resp)
		return
	}
	f, coalesced := s.flights[key]
	if coalesced {
		s.stats.CoalesceHits++
		f.refs++
	} else {
		ctx, cancel := context.WithCancel(s.base)
		f = &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
		s.flights[key] = f
		s.stats.Runs++
		if req.Analysis == "abstract" && req.Base != "" {
			s.stats.IncrementalRuns++
		}
		go s.run(ctx, key, f, req, prog)
	}
	s.mu.Unlock()

	select {
	case <-f.done:
	case <-r.Context().Done():
		// Client gone. Detach; the last detaching requester cancels the
		// run, which then stops at the engine's next merge boundary.
		s.mu.Lock()
		f.refs--
		last := f.refs == 0
		s.mu.Unlock()
		if last {
			f.cancel()
		}
		return
	}
	resp := f.out.resp
	resp.Coalesced = coalesced
	writeJSON(w, f.out.status, resp)
}

// requestKey validates the request and returns its coalescing/cache
// key: the program's identity plus every result-relevant option — the
// identity under which every response field is bit-identical. For an
// abstract request the program identity is its canonical hash in the
// options' mode, so requestKey parses the program and returns it for
// the run (a parse error is the request's error); an explore request is
// keyed on the sha256 of its text and parsed by its run. Request.Base is
// not part of the key.
func requestKey(req *Request) (string, *lang.Program, error) {
	switch req.Analysis {
	case "", "explore":
		req.Analysis = "explore"
	case "abstract":
	default:
		return "", nil, fmt.Errorf("unknown analysis %q (explore|abstract)", req.Analysis)
	}
	if _, ok := parseReduction(req.Options.Reduction); !ok {
		return "", nil, fmt.Errorf("unknown reduction %q (full|stubborn)", req.Options.Reduction)
	}
	if req.Analysis == "explore" {
		return fmt.Sprintf("%x|%s", sha256.Sum256([]byte(req.Program)), optionsKey(req)), nil, nil
	}
	if req.Options.Domain != "" && absdom.DomainByName(req.Options.Domain) == nil {
		return "", nil, fmt.Errorf("unknown domain %q (const|sign|interval)", req.Options.Domain)
	}
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return "", nil, err
	}
	return lang.HashProgram(prog).ProgramHash(req.Options.ClanFold) + "|" + optionsKey(req), prog, nil
}

// optionsKey is the program-independent part of requestKey.
func optionsKey(req *Request) string {
	o := req.Options
	return fmt.Sprintf("%s|red=%s coarsen=%t max=%d exact=%t dom=%s clan=%t outcomes=%t",
		req.Analysis, o.Reduction, o.Coarsen, o.MaxConfigs, o.ExactKeys, o.Domain, o.ClanFold, o.Outcomes)
}

func parseReduction(s string) (explore.Reduction, bool) {
	switch s {
	case "", "full":
		return explore.Full, true
	case "stubborn":
		return explore.Stubborn, true
	}
	return 0, false
}

// run executes one coalesced flight: the engine run itself, then under
// the lock the flight retires, cacheable results (completed, never
// cancelled — a cancelled cut is timing-dependent) enter the cache, and
// the per-run engine counters fold into the service aggregate.
func (s *Service) run(ctx context.Context, key string, f *flight, req Request, prog *lang.Program) {
	out, reg := s.execute(ctx, &req, prog)
	s.mu.Lock()
	f.out = out
	delete(s.flights, key)
	if out.resp.Cancelled {
		s.stats.RunsCancelled++
	} else if out.status == http.StatusOK {
		s.cache[key] = s.lru.PushFront(&cacheEntry{key: key, out: out})
		for s.cfg.CacheMax > 0 && s.lru.Len() > s.cfg.CacheMax {
			oldest := s.lru.Back()
			s.lru.Remove(oldest)
			delete(s.cache, oldest.Value.(*cacheEntry).key)
			s.stats.CacheEvictions++
		}
	}
	if reg != nil {
		for name, v := range reg.Snapshot().Counters {
			s.counters[name] += v
		}
	}
	s.mu.Unlock()
	f.cancel() // release the context; harmless after completion
	close(f.done)
}

// execute runs the request's engine under ctx on the shared pool, with
// a private metrics registry (level bookkeeping is single-run state).
// prog is the program requestKey parsed (abstract requests) or nil
// (explore requests, parsed here).
func (s *Service) execute(ctx context.Context, req *Request, prog *lang.Program) (*outcome, *metrics.Registry) {
	if prog == nil {
		var err error
		if prog, err = lang.Parse(req.Program); err != nil {
			return &outcome{
				resp:   Response{Analysis: req.Analysis, Error: err.Error()},
				status: http.StatusBadRequest,
			}, nil
		}
	}
	red, _ := parseReduction(req.Options.Reduction)
	reg := metrics.New()
	ro := pipeline.RunOptions{
		Reduction:  red,
		Coarsen:    req.Options.Coarsen,
		Workers:    s.cfg.Workers,
		Sched:      s.cfg.Sched,
		Pool:       s.pool,
		MaxConfigs: req.Options.MaxConfigs,
		ExactKeys:  req.Options.ExactKeys,
		Metrics:    reg,
	}

	if req.Analysis == "abstract" {
		adjust := func(ao *abssem.Options) {
			if req.Options.Domain != "" {
				ao.Domain = absdom.DomainByName(req.Options.Domain)
			}
			ao.ClanFold = req.Options.ClanFold
		}
		res := pipeline.AnalyzeContext(ctx, prog, ro, adjust)
		// The hash in requestKey's mode: clan folding reads local names,
		// so only the named hash identifies "same analysis input" under it.
		return &outcome{
			resp: Response{
				Analysis:    "abstract",
				Summary:     res.String(),
				States:      res.States,
				Visits:      res.Visits,
				Terminals:   res.TerminalCount,
				MayError:    res.MayError,
				Truncated:   res.Truncated,
				Cancelled:   res.Cancelled,
				ProgramHash: lang.HashProgram(prog).ProgramHash(req.Options.ClanFold),
			},
			status: http.StatusOK,
		}, reg
	}

	res := pipeline.ExploreContext(ctx, prog, ro)
	resp := Response{
		Analysis:    "explore",
		Summary:     res.String(),
		States:      res.States,
		Edges:       res.Edges,
		Terminals:   len(res.Terminals),
		Errors:      len(res.Errors),
		Truncated:   res.Truncated,
		Cancelled:   res.Cancelled,
		ProgramHash: lang.HashProgram(prog).ProgramHash(false),
	}
	if req.Options.Outcomes {
		resp.Outcomes = res.TerminalStoreSet()
	}
	return &outcome{resp: resp, status: http.StatusOK}, reg
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
