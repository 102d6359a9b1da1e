// Command perfbench is psa's benchmark. It drives psad in process behind
// a loopback HTTP server, and the report CLI path through
// core.Analyzer.Report, over four seeded workloads; checks every answer;
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output. See README.md.
//
//	bash perfbench/run.sh --workload explore-philo --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -record   # rewrite perfbench/expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark ends its output with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options are one run's settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	// Out is where the traced run writes its span file and CPU profile.
	Out string
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadList)
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "length of the measured loop in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		out      = flag.String("out", ".bench_build/trace", "directory for the traced run's span file and CPU profile")
		record   = flag.Bool("record", false, "recompute "+answersFile+" and exit")
	)
	flag.Parse()
	if *record {
		if err := Record(answersFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ans, err := LoadAnswers(answersFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := Options{Workload: *workload, Seed: *seed, Seconds: float64(*seconds), Out: *out}
	var res *Result
	if *trace == 1 {
		res, err = RunTraced(opts, ans)
	} else {
		res, err = Run(opts, ans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 21

// Workload is a prepared workload: its stream, reference checker, and
// the way one request is performed.
type Workload struct {
	Name   string
	Spec   Spec
	Stream []*Request
	Check  *Checker
	setups []float64
	srv    *Server
}

// Prepare builds the workload's inputs and sets it up setupReps times,
// keeping the last set-up for the loop.
func Prepare(opts Options, ans Answers) (*Workload, error) {
	u, err := BuildUniverse(opts.Workload)
	if err != nil {
		return nil, err
	}
	stream, err := BuildStream(u, ans, opts.Seed)
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: opts.Workload, Spec: specs[opts.Workload], Stream: stream, Check: NewChecker(ans)}
	for i := 0; i < setupReps; i++ {
		if w.srv != nil {
			w.srv.Close()
		}
		d, err := w.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		w.setups = append(w.setups, d.Seconds())
	}
	return w, nil
}

// setup starts a fresh psad (or, for report-corpus, runs one warm-up
// report) and returns the time it took.
func (w *Workload) setup() (time.Duration, error) {
	if w.Name == "report-corpus" {
		start := time.Now()
		_, err := report(specs["explore-philo"].Warm.Program)
		return time.Since(start), err
	}
	srv, d, err := StartServer(w.Spec)
	w.srv = srv
	return d, err
}

// Close releases the workload's psad.
func (w *Workload) Close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// restart replaces psad by a fresh one when the request asks for it.
func (w *Workload) restart(req *Request) error {
	if !req.Restart || w.srv == nil {
		return nil
	}
	w.Close()
	if _, err := w.setup(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return nil
}

// Do performs one request against the current set-up and checks it.
func (w *Workload) Do(_ int, req *Request) (time.Duration, error) {
	if err := w.restart(req); err != nil {
		return 0, err
	}
	start := time.Now()
	if w.srv == nil {
		text, err := report(req.Entry.Src)
		took := time.Since(start)
		if err != nil {
			return took, fmt.Errorf("%s: %w", req.Entry.Name, err)
		}
		return took, w.Check.Report(req.Entry, text)
	}
	status, resp, _, err := w.srv.Post(req.Body)
	took := time.Since(start)
	if err != nil {
		return took, fmt.Errorf("%s: %w", req.Entry.Name, err)
	}
	return took, w.Check.Response(req.Entry, status, &resp)
}

// Run is the untraced run: it measures the end-to-end metrics.
func Run(opts Options, ans Answers) (*Result, error) {
	w, err := Prepare(opts, ans)
	if err != nil {
		return nil, err
	}
	loop := RunLoop(w.Stream, w.Spec.Clients, secs(opts.Seconds), MinRequests, true, w.Do)
	w.Close()
	res := endToEnd(w, loop)
	fmt.Fprint(os.Stderr, describe(opts, res, loop, w))
	return res, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func endToEnd(w *Workload, loop *LoopResult) *Result {
	rps, cpuMS, allocMB := loop.WindowMedians()
	return &Result{
		Correct:   loop.Failed == 0,
		Attempted: loop.Attempted,
		Failed:    loop.Failed,
		Metrics: map[string]Metric{
			"setup_s":          {median(w.setups), "s"},
			"throughput_rps":   {rps, "1/s"},
			"latency_p50_ms":   {finite(loop.Percentile(50)), "ms"},
			"latency_p90_ms":   {finite(loop.Percentile(90)), "ms"},
			"cpu_ms_per_req":   {cpuMS, "ms"},
			"alloc_mb_per_req": {allocMB, "MB"},
			"peak_rss_mb":      {PeakRSSMB(), "MB"},
		},
	}
}

// finite maps the +Inf of a failed request to the largest float, which
// JSON can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// describe renders a run for humans: every metric with its unit, the
// failure share, the first failures, and the known defects it met.
func describe(opts Options, res *Result, loop *LoopResult, w *Workload) string {
	s := fmt.Sprintf("perfbench %s seed=%d: %d attempted, %d failed (failed_frac %.4f) in %.2fs\n",
		opts.Workload, opts.Seed, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), loop.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for i, e := range loop.Errors {
		if i == 5 {
			s += fmt.Sprintf("  ... %d more failures\n", len(loop.Errors)-i)
			break
		}
		s += "  FAIL " + e + "\n"
	}
	if loop.Attempted == len(w.Stream) {
		s += "  the stream ran out before the time was up\n"
	}
	for pair, n := range w.Check.Known {
		s += fmt.Sprintf("  KNOWN DEFECT %s (%d times): %s\n", pair, n, knownDivergent[pair])
	}
	return s
}
