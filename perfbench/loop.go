package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"psa/internal/lang"
	"psa/internal/service"
	"psa/internal/workloads"
)

// Spec is the fixed shape of a workload: how psad is configured, how
// many closed-loop clients drive it, and the warm-up request set-up
// ends with.
type Spec struct {
	Config  service.Config
	Clients int
	Warm    service.Request
}

var specs = map[string]Spec{
	"explore-philo": {Config: service.Config{Workers: 2}, Clients: 1,
		Warm: service.Request{Program: lang.Format(workloads.Fig2()), Analysis: "explore"}},
	"abstract-edit": {Config: service.Config{Workers: 2}, Clients: 1,
		Warm: service.Request{Program: lang.Format(workloads.Fig8Calls()), Analysis: "abstract",
			Options: service.Options{Domain: "interval"}}},
	"service-mix": {Config: service.Config{}, Clients: 2,
		Warm: service.Request{Program: lang.Format(workloads.Fig2()), Analysis: "explore"}},
	// report-corpus runs in process: one caller, Workers 0 (psa's default).
	"report-corpus": {Clients: 1},
}

// Server is psad in process behind a loopback HTTP server.
type Server struct {
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

// StartServer boots psad, waits for /healthz, and sends the warm-up
// request; the returned duration is the workload's set-up time.
func StartServer(spec Spec) (*Server, time.Duration, error) {
	start := time.Now()
	svc := service.New(spec.Config)
	s := &Server{
		svc:    svc,
		srv:    httptest.NewServer(svc.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: spec.Clients}},
	}
	if err := s.healthy(); err != nil {
		s.Close()
		return nil, 0, err
	}
	body, err := json.Marshal(spec.Warm)
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	status, resp, _, err := s.Post(body)
	if err == nil && (status != http.StatusOK || resp.Error != "") {
		err = fmt.Errorf("warm-up request: status %d: %s", status, resp.Error)
	}
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

func (s *Server) healthy() error {
	var last error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := s.client.Get(s.srv.URL + "/healthz")
		if err != nil {
			last = err
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return last
}

// Post sends one /analyze body and decodes the answer; n is the size of
// the response body.
func (s *Server) Post(body []byte) (status int, r service.Response, n int, err error) {
	resp, err := s.client.Post(s.srv.URL+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, r, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, r, 0, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return resp.StatusCode, r, len(raw), fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, r, len(raw), nil
}

// Metrics reads the request bookkeeping of psad's /metrics body.
func (s *Server) Metrics() (service.Stats, error) {
	var body struct {
		Service service.Stats `json:"service"`
	}
	resp, err := s.client.Get(s.srv.URL + "/metrics")
	if err != nil {
		return body.Service, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Service, err
}

// Close stops the HTTP server and psad and waits for both.
func (s *Server) Close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.svc.Close()
}

// Usage is a snapshot of the process's resource counters.
type Usage struct {
	at       time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func ReadUsage() Usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return Usage{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// PeakRSSMB is the process's peak resident set in MiB.
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// LoopResult is what one closed loop measured.
type LoopResult struct {
	Latencies []float64 // ms per attempted request; +Inf for a failure
	Attempted int
	Failed    int
	Errors    []string // one line per failure
	Before    Usage
	After     Usage
	// Windows are the usage snapshots taken as each window-ending
	// request (Request.Mark) completed, in stream order.
	Windows []Window

	ok []bool // by stream index, for the attempted prefix
}

// Window is a usage snapshot at the end of a window: End is the stream
// index of the marked request.
type Window struct {
	End int
	Usage
}

// Completed is the number of requests answered correctly.
func (l *LoopResult) Completed() int { return l.Attempted - l.Failed }

// Seconds is the loop's wall time.
func (l *LoopResult) Seconds() float64 { return l.After.at.Sub(l.Before.at).Seconds() }

// Percentile returns the Harrell–Davis estimate of the p-th percentile
// (0..100) of the latencies: a mean of the sorted latencies weighted by
// the Beta(p(n+1), (1-p)(n+1)) density, so that it rests on the
// requests ranked around p rather than on the single one at rank p.
// abstract-edit's request costs have a gap at the median (cheap and
// capped programs), and the nearest-rank median jumped between the two
// requests on either side of it from run to run. A failed request is
// infinitely slow: it makes the estimate infinite unless its weight is
// negligible.
func (l *LoopResult) Percentile(p float64) float64 {
	xs := append([]float64(nil), l.Latencies...)
	sort.Float64s(xs)
	n := float64(len(xs))
	if n == 0 {
		return math.Inf(1)
	}
	a, b := p/100*(n+1), (1-p/100)*(n+1)
	logw := make([]float64, len(xs))
	top := math.Inf(-1)
	for i := range xs {
		x := (float64(i) + 0.5) / n
		logw[i] = (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
		top = math.Max(top, logw[i])
	}
	var sum, total float64
	for i, x := range xs {
		w := math.Exp(logw[i] - top)
		total += w
		if math.IsInf(x, 1) {
			if w > 1e-12 {
				return math.Inf(1)
			}
			continue
		}
		sum += w * x
	}
	return sum / total
}

// WindowMedians returns the median over complete windows of the
// correct requests per second, the process CPU milliseconds per correct
// request, and the allocated MiB per correct request. Every window holds
// the same mix of inputs, so the median drops windows a noisy neighbour
// slowed without favouring any input. With fewer than three windows it
// falls back to the whole loop.
func (l *LoopResult) WindowMedians() (rps, cpuMS, allocMB float64) {
	var r, c, a []float64
	prev := Window{End: -1, Usage: l.Before}
	for _, w := range l.Windows {
		done := 0
		for i := prev.End + 1; i <= w.End; i++ {
			if l.ok[i] {
				done++
			}
		}
		n := float64(max(done, 1))
		r = append(r, float64(done)/w.at.Sub(prev.at).Seconds())
		c = append(c, float64((w.cpu-prev.cpu).Microseconds())/1000/n)
		a = append(a, float64(w.alloc-prev.alloc)/(1<<20)/n)
		prev = w
	}
	if len(r) < 3 {
		n := float64(max(l.Completed(), 1))
		return float64(l.Completed()) / l.Seconds(),
			float64((l.After.cpu - l.Before.cpu).Microseconds()) / 1000 / n,
			float64(l.After.alloc-l.Before.alloc) / (1 << 20) / n
	}
	return median(r), median(c), median(a)
}

// Do performs request i of the stream and returns its latency; a
// non-nil error counts the request as failed.
type Do func(i int, req *Request) (time.Duration, error)

// MinRequests is the least the end-to-end loop completes, so that at least ten
// latencies lie beyond p90.
const MinRequests = 100

// RunLoop drives the stream with the given number of closed-loop
// clients until the deadline has passed and at least least requests were
// attempted, or the stream is used up. With whole set, it then finishes
// the window in progress, so that every window it measured holds the
// same mix. Clients take the next request in stream order.
func RunLoop(stream []*Request, clients int, d time.Duration, least int, whole bool, do Do) *LoopResult {
	var next atomic.Int64
	stopAt := atomic.Int64{} // last index to send once the deadline passed
	stopAt.Store(-1)
	res := &LoopResult{Before: ReadUsage()}
	deadline := res.Before.at.Add(d)
	lat := make([]float64, len(stream))
	ok := make([]bool, len(stream))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				if end := stopAt.Load(); end < 0 && i >= least && time.Now().After(deadline) {
					end = int64(i - 1)
					for whole && end >= 0 && !stream[end].Mark && end+1 < int64(len(stream)) {
						end++
					}
					stopAt.CompareAndSwap(-1, end)
				}
				if end := stopAt.Load(); end >= 0 && int64(i) > end {
					return
				}
				took, err := do(i, stream[i])
				lat[i], ok[i] = float64(took.Nanoseconds())/1e6, err == nil
				if err != nil {
					lat[i] = math.Inf(1)
				}
				if err == nil && !stream[i].Mark {
					continue
				}
				mu.Lock()
				if err != nil {
					res.Failed++
					res.Errors = append(res.Errors, err.Error())
				} else {
					res.Windows = append(res.Windows, Window{End: i, Usage: ReadUsage()})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.After = ReadUsage()
	res.Attempted = min(int(next.Load())-clients, len(stream))
	res.Latencies, res.ok = lat[:res.Attempted], ok[:res.Attempted]
	sort.Slice(res.Windows, func(i, j int) bool { return res.Windows[i].End < res.Windows[j].End })
	return res
}
