package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/sched"
	"psa/internal/workloads"
)

const smallProg = `
var g; var flag; var data; var out;
func main() {
  cobegin {
    s1: g = 1;
    data = 42;
    flag = 1;
  } || {
    s2: g = 2;
    loop: while flag == 0 { skip; }
    s3: out = data;
  } coend
}
`

// longProg explores ~45k states (~0.5s sequential): long enough that a
// request can demonstrably be cancelled or coalesced mid-run, short
// enough for a bounded test.
func longProg() string { return lang.Format(workloads.Philosophers(5)) }

func newSvc(t *testing.T, workers int, sc sched.Scheduler) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Workers: workers, Sched: sc})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func post(t *testing.T, url string, req Request) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func waitForServiceGoroutineBaseline(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
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

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newSvc(t, 0, sched.Leveled)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	if code, out := post(t, ts.URL, Request{Program: smallProg}); code != http.StatusOK {
		t.Fatalf("analyze: status %d (%+v)", code, out)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body metricsBody
	if err := json.NewDecoder(mresp.Body).Decode(&body); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if body.Service.Runs != 1 || body.Service.Requests != 1 {
		t.Fatalf("metrics service stats: %+v, want 1 run / 1 request", body.Service)
	}
	if body.Counters["states_unique"] == 0 {
		t.Fatalf("metrics counters missing engine activity: %v", body.Counters)
	}
}

// The acceptance criterion: a completed service run is bit-identical to
// the direct engine summary for the same (program, options) at 0, 1,
// and 4 workers under both schedulers.
func TestResponsesBitIdenticalToDirectRuns(t *testing.T) {
	prog, err := lang.Parse(smallProg)
	if err != nil {
		t.Fatal(err)
	}
	wantExplore := explore.Explore(prog, explore.Options{Reduction: explore.Stubborn, Coarsen: true}).String()
	wantAbstract := abssem.Analyze(prog, abssem.Options{Domain: absdom.SignDomain{}}).String()

	for _, workers := range []int{0, 1, 4} {
		for _, sc := range []sched.Scheduler{sched.Leveled, sched.DepDriven} {
			_, ts := newSvc(t, workers, sc)
			code, out := post(t, ts.URL, Request{
				Program: smallProg,
				Options: Options{Reduction: "stubborn", Coarsen: true},
			})
			if code != http.StatusOK {
				t.Fatalf("workers=%d sched=%s: status %d (%+v)", workers, sc, code, out)
			}
			if out.Summary != wantExplore {
				t.Errorf("workers=%d sched=%s: explore summary %q != direct %q", workers, sc, out.Summary, wantExplore)
			}
			code, out = post(t, ts.URL, Request{
				Program:  smallProg,
				Analysis: "abstract",
				Options:  Options{Domain: "sign"},
			})
			if code != http.StatusOK {
				t.Fatalf("workers=%d sched=%s: abstract status %d (%+v)", workers, sc, code, out)
			}
			if out.Summary != wantAbstract {
				t.Errorf("workers=%d sched=%s: abstract summary %q != direct %q", workers, sc, out.Summary, wantAbstract)
			}
		}
	}
}

func TestResultCache(t *testing.T) {
	svc, ts := newSvc(t, 0, sched.Leveled)
	req := Request{Program: smallProg, Options: Options{Outcomes: true}}
	_, first := post(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first request reported Cached")
	}
	_, second := post(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("identical second request missed the result cache")
	}
	if second.Summary != first.Summary || len(second.Outcomes) != len(first.Outcomes) {
		t.Fatalf("cached response diverged: %+v vs %+v", second, first)
	}
	// A different result-relevant option is a different key.
	_, third := post(t, ts.URL, Request{Program: smallProg, Options: Options{Reduction: "stubborn", Outcomes: true}})
	if third.Cached {
		t.Fatal("request under different options hit the cache")
	}
	st := svc.Stats()
	if st.Runs != 2 || st.CacheHits != 1 {
		t.Fatalf("stats after cache exercise: %+v, want 2 runs / 1 cache hit", st)
	}
}

func TestResultCacheEviction(t *testing.T) {
	svc := New(Config{CacheMax: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	second := `var g; func main() { g = 1; }`

	post(t, ts.URL, Request{Program: smallProg})
	post(t, ts.URL, Request{Program: second}) // bound 1: evicts smallProg
	if _, out := post(t, ts.URL, Request{Program: smallProg}); out.Cached {
		t.Fatal("evicted result was served from the cache")
	}
	st := svc.Stats()
	if st.CacheEvictions < 2 {
		t.Fatalf("stats: %+v, want >=2 evictions at CacheMax=1", st)
	}
	if st.CacheHits != 0 {
		t.Fatalf("stats: %+v, want 0 cache hits", st)
	}
}

// Program versions for the canonical-hash keying test: svcAlphaB
// α-renames svcAlphaA's parameter and main's local; svcAlphaC renames
// only main's local (α-neutral, but not name-neutral under clan
// folding).
const (
	svcAlphaA = `
var g; var h;
func bump(x) { g = g + x; }
func main() {
  var k = 1;
  cobegin { bump(k); } || { var j = 2; h = h + j; } || { var j = 2; h = h + j; } coend
  g = g + h;
}
`
	svcAlphaB = `
var g; var h;
func bump(y) { g = g + y; }
func main() {
  var n = 1;
  cobegin { bump(n); } || { var j = 2; h = h + j; } || { var j = 2; h = h + j; } coend
  g = g + h;
}
`
	svcAlphaC = `
var g; var h;
func bump(x) { g = g + x; }
func main() {
  var k = 1;
  cobegin { bump(k); } || { var j = 2; h = h + j; } || { var i = 2; h = h + i; } coend
  g = g + h;
}
`
	// svcRaceA and svcRaceB are one racy program on different lines:
	// its failing assertion's outcome names the source position.
	svcRaceA = "var g;\nfunc main() {\n  cobegin { g = 1; } || { g = 2; } coend\n  assert g == 1;\n}\n"
	svcRaceB = "var g; func main() { cobegin { g = 1; } || { g = 2; } coend assert g == 1; }"
)

// The result cache keys an abstract request on its canonical program
// hash (plus options) and an explore request on its program text: an
// α-equivalent abstract resubmission from any client hits, base is
// ignored, clan folding switches to the name-sensitive hash, and a
// reformatted explore program keeps its own positions.
func TestCanonicalHashKeying(t *testing.T) {
	svc, ts := newSvc(t, 0, sched.Leveled)
	abstract := func(src string, o Options, base string) Response {
		t.Helper()
		code, out := post(t, ts.URL, Request{Program: src, Analysis: "abstract", Options: o, Base: base})
		if code != http.StatusOK {
			t.Fatalf("status %d: %+v", code, out)
		}
		return out
	}
	scratch := func(src string, clan bool) string {
		return abssem.Analyze(lang.MustParse(src), abssem.Options{ClanFold: clan}).String()
	}

	// An α-renamed program sent without base is served from the cache
	// and its summary equals a scratch run of it.
	a := abstract(svcAlphaA, Options{}, "")
	if a.Cached || a.ProgramHash == "" {
		t.Fatalf("first submission: %+v", a)
	}
	b := abstract(svcAlphaB, Options{}, "")
	if !b.Cached {
		t.Fatal("α-renamed resubmission missed the cache")
	}
	if b.Summary != scratch(svcAlphaB, false) || b.ProgramHash != a.ProgramHash {
		t.Fatalf("cached α-renamed response %+v diverged from scratch %q", b, scratch(svcAlphaB, false))
	}

	// An unknown base is accepted and ignored.
	if c := abstract(svcAlphaC, Options{}, "no-such-hash"); !c.Cached || c.Summary != scratch(svcAlphaC, false) {
		t.Fatalf("request with unknown base: %+v", c)
	}

	// Under clan folding the named hash applies: a local rename misses.
	fa := abstract(svcAlphaA, Options{ClanFold: true}, "")
	fc := abstract(svcAlphaC, Options{ClanFold: true}, fa.ProgramHash)
	if fa.Cached || fc.Cached || fa.ProgramHash == fc.ProgramHash {
		t.Fatalf("clan_fold local rename hit the cache: %+v / %+v", fa, fc)
	}
	if fc.Summary != scratch(svcAlphaC, true) {
		t.Fatalf("clan_fold summary %q != scratch %q", fc.Summary, scratch(svcAlphaC, true))
	}

	// A reformatted explore program gets its own entry, and its error
	// outcomes carry its own positions.
	explore := func(src string) Response {
		t.Helper()
		_, out := post(t, ts.URL, Request{Program: src, Options: Options{Outcomes: true}})
		return out
	}
	ra, rb := explore(svcRaceA), explore(svcRaceB)
	if rb.Cached {
		t.Fatal("reformatted explore program hit the other layout's entry")
	}
	errs := func(r Response) string {
		var out []string
		for _, o := range r.Outcomes {
			if strings.HasPrefix(o, "ERR:") {
				out = append(out, o)
			}
		}
		return strings.Join(out, "\n")
	}
	// The assertion sits on line 4 of svcRaceA and line 1 of svcRaceB.
	if !strings.HasPrefix(errs(ra), "ERR:4:") || !strings.HasPrefix(errs(rb), "ERR:1:") {
		t.Fatalf("explore error outcomes should carry their own positions:\n%s\nvs\n%s", errs(ra), errs(rb))
	}
	if again := explore(svcRaceB); !again.Cached || errs(again) != errs(rb) {
		t.Fatalf("explore resubmission: %+v", again)
	}

	// A malformed abstract program is a 400 carrying the parse error, and
	// no run is counted.
	before := svc.Stats()
	code, bad := post(t, ts.URL, Request{Program: "func main( {", Analysis: "abstract", Base: a.ProgramHash})
	if code != http.StatusBadRequest || bad.Error == "" {
		t.Fatalf("malformed abstract program: status %d %+v", code, bad)
	}
	if _, err := lang.Parse("func main( {"); err == nil || bad.Error != err.Error() {
		t.Fatalf("malformed abstract program: error %q, want the parse error %v", bad.Error, err)
	}

	st := svc.Stats()
	if st.Runs != before.Runs || st.IncrementalRuns != before.IncrementalRuns {
		t.Fatalf("stats %+v after malformed request (before %+v)", st, before)
	}
	// Runs: A, A and C under clan folding, both explore layouts. Only the
	// clan-fold C run carried a base.
	if st.Runs != 5 || st.CacheHits != 3 || st.IncrementalRuns != 1 {
		t.Fatalf("stats: %+v, want 5 runs / 3 cache hits / 1 incremental run", st)
	}
}

// N identical concurrent requests share one engine run: every response
// carries the same summary, and the service performed exactly one run —
// the followers either attached to the in-flight run (coalesce hits) or,
// if they lost the race with completion, hit the result cache.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	svc, ts := newSvc(t, 2, sched.Leveled)
	prog := longProg()
	req := Request{Program: prog}

	leaderDone := make(chan Response, 1)
	go func() {
		_, out := post(t, ts.URL, req)
		leaderDone <- out
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	const followers = 4
	outs := make([]Response, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, outs[i] = post(t, ts.URL, req)
		}(i)
	}
	wg.Wait()
	leader := <-leaderDone

	for i, out := range outs {
		if out.Summary != leader.Summary {
			t.Errorf("follower %d summary %q != leader %q", i, out.Summary, leader.Summary)
		}
	}
	st := svc.Stats()
	if st.Runs != 1 {
		t.Fatalf("5 identical requests caused %d engine runs, want exactly 1 (stats %+v)", st.Runs, st)
	}
	if st.CoalesceHits+st.CacheHits != followers {
		t.Fatalf("followers unaccounted for: %+v, want coalesce+cache = %d", st, followers)
	}
}

// A client disconnecting mid-run cancels the run within a bounded
// deadline once no other request is attached, with no goroutine leak.
func TestClientDisconnectCancelsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	body, _ := json.Marshal(Request{Program: longProg()})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	cancel() // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected the client request to fail after cancellation")
	}
	// Bounded-deadline cancellation: the run must observe the cancel at
	// its next merge boundary and retire, well inside the full runtime.
	deadline = time.Now().Add(3 * time.Second)
	for {
		st := svc.Stats()
		if st.Inflight == 0 && st.RunsCancelled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run not cancelled within deadline: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	ts.Close()
	svc.Close()
	waitForServiceGoroutineBaseline(t, before)
}

// Close cancels in-flight runs; attached clients get a coherent partial
// result flagged cancelled, and everything drains without leaking.
func TestCloseCancelsInflightRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())

	type reply struct {
		code int
		out  Response
	}
	done := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(Request{Program: longProg()})
		resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- reply{code: -1}
			return
		}
		defer resp.Body.Close()
		var out Response
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- reply{code: resp.StatusCode, out: out}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(100 * time.Microsecond)
	}

	svc.Close()
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during Close: status %d (%+v)", r.code, r.out)
	}
	if !r.out.Cancelled {
		t.Fatalf("in-flight request during Close returned uncancelled result: %+v", r.out)
	}
	if r.out.States < 1 {
		t.Fatalf("cancelled result lost its coherent prefix: %+v", r.out)
	}

	// After Close, new submissions are refused.
	if code, _ := post(t, ts.URL, Request{Program: smallProg}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request: status %d, want 503", code)
	}

	ts.Close()
	waitForServiceGoroutineBaseline(t, before)
}

func TestBadRequests(t *testing.T) {
	_, ts := newSvc(t, 0, sched.Leveled)
	for name, tc := range map[string]struct {
		method string
		body   string
		want   int
	}{
		"not-json":         {http.MethodPost, "{", http.StatusBadRequest},
		"unknown-analysis": {http.MethodPost, `{"program":"var g;","analysis":"quantum"}`, http.StatusBadRequest},
		"unknown-red":      {http.MethodPost, `{"program":"var g;","options":{"reduction":"fast"}}`, http.StatusBadRequest},
		"unknown-domain":   {http.MethodPost, `{"program":"var g;","analysis":"abstract","options":{"domain":"octagon"}}`, http.StatusBadRequest},
		"parse-error":      {http.MethodPost, `{"program":"not a program"}`, http.StatusBadRequest},
		"get-not-allowed":  {http.MethodGet, "", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+"/analyze", strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}

	svcBig, tsBig := newSvc(t, 0, sched.Leveled)
	_ = svcBig
	huge := `{"program":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(tsBig.URL+"/analyze", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}
