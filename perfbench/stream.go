package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"psa/internal/service"
)

// Request is one element of a workload's stream: the entry it asks
// about and its request body, marshalled before timing starts.
type Request struct {
	Entry *Entry
	Body  []byte
	// Base reports that the body carries the program_hash of Entry.Prev.
	Base bool
	// Mark ends a measurement window: a pass of explore-philo or
	// abstract-edit, three passes over the report corpus, or 1000
	// service-mix requests.
	Mark bool
	// Restart starts a fresh psad before the request is sent: the stream
	// begins another cycle through its universe (programs repeat only
	// across service lifetimes) or another abstract-edit chain.
	Restart bool
}

// tagged appends a per-request comment, so every request of a stream is
// a distinct text (psad caches by text) unless it is a resubmission.
func tagged(src string, id int) string {
	return fmt.Sprintf("%s\n// request %d\n", src, id)
}

func newRequest(e *Entry, id int, base bool) (*Request, error) {
	req := service.Request{Program: tagged(e.Src, id), Analysis: e.Analysis, Options: e.Options}
	if base {
		req.Base = e.Prev.Hash
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &Request{Entry: e, Body: body, Base: base}, nil
}

// streamLen bounds the pre-generated stream of each workload; a run ends
// early (and says so on stderr) if it sends them all before its time.
var streamLen = map[string]int{
	"explore-philo": 2000,
	"abstract-edit": 1500,
	"service-mix":   40000,
	"report-corpus": 20000,
}

// BuildStream generates the workload's request stream from the seed.
// The same seed always yields byte-identical bodies.
func BuildStream(u *Universe, ans Answers, seed int64) ([]*Request, error) {
	r := rand.New(rand.NewSource(seed))
	n := streamLen[u.Workload]
	switch u.Workload {
	case "explore-philo", "abstract-edit":
		return passStream(u, ans, r, n)
	case "service-mix":
		return mixStream(u, r, n)
	}
	// report-corpus: the corpus in a fresh seeded order on every pass.
	var out []*Request
	for pass := 1; len(out) < n; pass++ {
		for _, i := range r.Perm(len(u.Fixed)) {
			out = append(out, &Request{Entry: u.Fixed[i]})
		}
		out[len(out)-1].Mark = pass%3 == 0
	}
	return out, nil
}

// strata is the number of cost classes a pass of explore-philo or
// abstract-edit draws one progen unit from. abstract-edit's classes hold
// one chain each, so each of its passes sends the whole universe: its
// costs are too spread and too dependent on what the incremental
// session saw before for a partial draw to measure steadily.
var strata = map[string]int{"explore-philo": 8, "abstract-edit": abstractUniverse}

// stratify splits the universe's units into equal-sized classes by
// recorded cost (explored states plus abstract visits), cheapest
// first, so that each pass of a stream draws one unit of every class and
// runs differ in which programs they see but not in their mix of sizes.
func stratify(u *Universe, ans Answers) ([][][]*Entry, error) {
	type costed struct {
		unit []*Entry
		cost int
		idx  int
	}
	cs := make([]costed, len(u.Units))
	for i, unit := range u.Units {
		cs[i] = costed{unit: unit, idx: i}
		for _, e := range unit {
			a, ok := ans[e.Key()]
			if !ok {
				return nil, fmt.Errorf("%s: no recorded answer (key %s); rerun with -record", e.Name, e.Key())
			}
			cs[i].cost += a.States + a.Visits
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].cost != cs[j].cost {
			return cs[i].cost < cs[j].cost
		}
		return cs[i].idx < cs[j].idx
	})
	k := strata[u.Workload]
	out := make([][][]*Entry, k)
	for i, c := range cs {
		k := i * k / len(cs)
		out[k] = append(out[k], c.unit)
	}
	return out, nil
}

// passStream builds explore-philo and abstract-edit streams: a sequence
// of passes, each holding the fixed entries plus one unit from every
// cost class (drawn without replacement until a class is used up), in
// a seeded order. A unit's requests stay adjacent and in order, and an
// edit carries the previous version's program_hash as base.
func passStream(u *Universe, ans Answers, r *rand.Rand, n int) ([]*Request, error) {
	classes, err := stratify(u, ans)
	if err != nil {
		return nil, err
	}
	orders := make([][]int, len(classes))
	var out []*Request
	for pass := 0; len(out) < n; pass++ {
		var units [][]*Entry
		for _, e := range u.Fixed {
			units = append(units, []*Entry{e})
		}
		for k, class := range classes {
			at := pass % len(class)
			if at == 0 {
				orders[k] = r.Perm(len(class))
			}
			units = append(units, class[orders[k][at]])
		}
		first := len(out)
		for _, i := range r.Perm(len(units)) {
			for j, e := range units[i] {
				req, err := newRequest(e, len(out), e.Prev != nil)
				if err != nil {
					return nil, err
				}
				// Each edit chain gets a psad of its own: a session that
				// carried summaries over from other programs made a run's
				// memory peak depend on the order of the chains.
				req.Restart = j == 0 && len(units[i]) > 2
				out = append(out, req)
			}
		}
		out[first].Restart = out[first].Restart || pass > 0 && pass%len(classes[0]) == 0
		out[len(out)-1].Mark = true
	}
	return out, nil
}

// mixStream builds the service-mix stream: about half first submissions
// of a program under one option combo, a quarter exact resubmissions of
// an earlier request (a quarter of those from further back than the
// 1024-entry result cache reaches), and a quarter edits of a recently
// submitted program, two thirds of them with base. First submissions
// walk the universe in seeded permutations, so every run sends each
// (program, options) entry about equally often: a few entries cost a
// hundred times the median, and drawing them with replacement would make
// a run's cost depend on how often it happened to pick them.
func mixStream(u *Universe, r *rand.Rand, n int) ([]*Request, error) {
	var all []*Entry
	for _, unit := range u.Units {
		all = append(all, unit...)
	}
	var perm []int
	out := make([]*Request, 0, n)
	var firsts []int // indexes of first submissions with edit combos
	for len(out) < n {
		i := len(out)
		x := r.Float64()
		switch {
		case x < 0.25 && i > 0:
			d := 1 + r.Intn(700)
			if r.Intn(4) == 0 {
				d = 1500 + r.Intn(2500)
			}
			if d > i {
				d = 1 + r.Intn(i)
			}
			prev := out[i-d]
			out = append(out, &Request{Entry: prev.Entry, Body: prev.Body, Base: prev.Base})
			continue
		case x < 0.5 && len(firsts) > 0:
			j := firsts[len(firsts)-1-r.Intn(min(64, len(firsts)))]
			edits := u.Edits[out[j].Entry]
			req, err := newRequest(edits[r.Intn(len(edits))], i, r.Intn(3) < 2)
			if err != nil {
				return nil, err
			}
			out = append(out, req)
			continue
		}
		if len(perm) == 0 {
			perm = r.Perm(len(all))
		}
		e := all[perm[0]]
		perm = perm[1:]
		req, err := newRequest(e, i, false)
		if err != nil {
			return nil, err
		}
		if len(u.Edits[e]) > 0 {
			firsts = append(firsts, i)
		}
		out = append(out, req)
	}
	for i := 999; i < n; i += 1000 {
		out[i].Mark = true
	}
	return out, nil
}
