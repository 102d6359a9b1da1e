package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"

	"psa/internal/core"
	"psa/internal/paperexp"
	"psa/internal/service"
)

// Answer is the recorded answer for one entry. Explore entries record
// states/edges/terminals/errors/truncated; abstract entries
// states/visits/terminals/may_error/truncated plus the digest of the
// summary text; report entries the digest of the report.
type Answer struct {
	Name       string `json:"name"`
	States     int    `json:"states,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	Visits     int    `json:"visits,omitempty"`
	Terminals  int    `json:"terminals,omitempty"`
	Errors     int    `json:"errors,omitempty"`
	Truncated  bool   `json:"truncated,omitempty"`
	MayError   bool   `json:"may_error,omitempty"`
	SummarySHA string `json:"summary_sha256,omitempty"`
	ReportSHA  string `json:"report_sha256,omitempty"`
}

// Answers maps Entry.Key to the recorded answer.
type Answers map[string]Answer

const answersFile = "perfbench/expected.json"

// LoadAnswers reads the expected-answers file.
func LoadAnswers(path string) (Answers, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Answers
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Write stores the answers one entry per line, sorted by key.
func (a Answers) Write(path string) error {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		v, err := json.Marshal(a[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%q: %s", k, v)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func answerOf(e *Entry, r *service.Response) Answer {
	a := Answer{Name: e.Name, States: r.States, Terminals: r.Terminals, Truncated: r.Truncated}
	if e.Analysis == "abstract" {
		a.Visits, a.MayError, a.SummarySHA = r.Visits, r.MayError, sha(r.Summary)
	} else {
		a.Edges, a.Errors = r.Edges, r.Errors
	}
	return a
}

// report runs the CLI's report path on a fresh analyzer.
func report(src string) (string, error) {
	a, err := core.Parse(src)
	if err != nil {
		return "", err
	}
	defer a.Close()
	var b strings.Builder
	if err := a.Report(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// knownDivergent lists the programs whose full and stubborn explorations
// reach different outcome sets at this commit. On progen-d82 the
// stubborn-set reduction loses an error terminal (the assertion failure
// at 68:9) that full exploration reaches, against the first soundness
// obligation of DESIGN.md §6. The pair check reports these on every run
// that sends them instead of failing it; TestKnownDivergencesStillDiverge
// fails once the engine is fixed, so the entry goes with the fix.
var knownDivergent = map[string]string{
	"progen-d82": "stubborn exploration misses the error outcome at 68:9 that full exploration reaches",
}

// Checker compares answers against the three references: the recorded
// file, paperexp's expectations where an entry matches one, and, for
// entries sharing a Pair, equality of their outcome sets.
type Checker struct {
	answers Answers

	mu       sync.Mutex
	outcomes map[string]string // Pair → outcome set of the first untruncated answer
	// Known counts the outcome-set mismatches on knownDivergent pairs.
	Known map[string]int
}

func NewChecker(a Answers) *Checker {
	return &Checker{answers: a, outcomes: map[string]string{}, Known: map[string]int{}}
}

// Response checks one psad answer for the entry.
func (c *Checker) Response(e *Entry, status int, r *service.Response) error {
	if status != http.StatusOK || r.Error != "" {
		return fmt.Errorf("%s: status %d: %s", e.Name, status, r.Error)
	}
	if r.Cancelled {
		return fmt.Errorf("%s: run cancelled", e.Name)
	}
	if r.ProgramHash != e.Hash {
		return fmt.Errorf("%s: program_hash %s, want %s", e.Name, r.ProgramHash, e.Hash)
	}
	got := answerOf(e, r)
	if err := c.recorded(e, got); err != nil {
		return err
	}
	if err := paperCheck(e, r); err != nil {
		return err
	}
	if e.Pair == "" || !e.Options.Outcomes || r.Truncated {
		return nil
	}
	set := strings.Join(r.Outcomes, "\n")
	c.mu.Lock()
	defer c.mu.Unlock()
	first, seen := c.outcomes[e.Pair]
	if !seen {
		c.outcomes[e.Pair] = set
		return nil
	}
	if first != set {
		if _, known := knownDivergent[e.Pair]; known {
			c.Known[e.Pair]++
			return nil
		}
		return fmt.Errorf("%s: outcome set differs from another strategy's on the same program", e.Name)
	}
	return nil
}

// Report checks one report text for the entry.
func (c *Checker) Report(e *Entry, text string) error {
	return c.recorded(e, Answer{Name: e.Name, ReportSHA: sha(text)})
}

func (c *Checker) recorded(e *Entry, got Answer) error {
	want, ok := c.answers[e.Key()]
	if !ok {
		return fmt.Errorf("%s: no recorded answer (key %s); rerun with -record", e.Name, e.Key())
	}
	got.Name = want.Name
	if got != want {
		return fmt.Errorf("%s: answer %+v, recorded %+v", e.Name, got, want)
	}
	return nil
}

// paperCheck compares an answer with paperexp's recorded counts when the
// entry's program and options match one of its expectations.
func paperCheck(e *Entry, r *service.Response) error {
	if e.Prev != nil {
		return nil // an edit is a different program
	}
	prog, _, _ := strings.Cut(e.Name, "/")
	if e.Analysis == "explore" {
		for _, x := range paperexp.Expectations() {
			if x.Workload == prog && x.Strategy == strategy(e.Options) && e.Options.MaxConfigs == 0 &&
				(x.States != r.States || x.Edges != r.Edges || x.Terminals != r.Terminals) {
				return fmt.Errorf("%s: %d states %d edges %d terminals, paperexp records %d/%d/%d",
					e.Name, r.States, r.Edges, r.Terminals, x.States, x.Edges, x.Terminals)
			}
		}
		return nil
	}
	for _, x := range paperexp.AbsExpectations() {
		if x.Workload == prog && x.Domain == e.Options.Domain && !e.Options.ClanFold && e.Options.MaxConfigs == 0 &&
			(x.States != r.States || x.Visits != r.Visits || x.Terminals != r.Terminals || x.MayError != r.MayError) {
			return fmt.Errorf("%s: %d states %d visits %d terminals may_error=%t, paperexp records %d/%d/%d/%t",
				e.Name, r.States, r.Visits, r.Terminals, r.MayError, x.States, x.Visits, x.Terminals, x.MayError)
		}
	}
	return nil
}

// Record computes the answer of every entry of every workload with a
// sequential in-process psad and the report path, checks them against
// paperexp and the outcome pairs, and writes the answers file.
func Record(path string) error {
	svc := service.New(service.Config{CacheMax: -1})
	defer svc.Close()
	h := svc.Handler()
	ans := Answers{}
	chk := NewChecker(ans)
	for _, w := range strings.Split(workloadList, "|") {
		u, err := BuildUniverse(w)
		if err != nil {
			return err
		}
		all := u.All()
		fmt.Fprintf(os.Stderr, "record %s: %d entries\n", w, len(all))
		for _, e := range all {
			if _, done := ans[e.Key()]; done {
				continue
			}
			if e.Analysis == "report" {
				text, err := report(e.Src)
				if err != nil {
					return fmt.Errorf("%s: %w", e.Name, err)
				}
				ans[e.Key()] = Answer{Name: e.Name, ReportSHA: sha(text)}
				continue
			}
			body, err := json.Marshal(service.Request{Program: e.Src, Analysis: e.Analysis, Options: e.Options})
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
			var r service.Response
			if err := json.NewDecoder(bufio.NewReader(rec.Body)).Decode(&r); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if rec.Code == http.StatusOK && r.Error == "" {
				ans[e.Key()] = answerOf(e, &r)
			}
			if err := chk.Response(e, rec.Code, &r); err != nil {
				return err
			}
		}
	}
	return ans.Write(path)
}
