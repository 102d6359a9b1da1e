package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"psa/internal/lang"
	"psa/internal/progen"
	"psa/internal/service"
	"psa/internal/workloads"
)

// Entry is one analysis input together with its options: the unit the
// expected-answers file records and the request streams draw from.
type Entry struct {
	// Name identifies the entry in diagnostics, e.g.
	// "philosophers5/stubborn" or "progen-d17/full".
	Name string
	// Src is the program text, before any per-request tag.
	Src string
	// Analysis is "explore" or "abstract" (sent to psad) or "report"
	// (an in-process core.Analyzer.Report).
	Analysis string
	Options  service.Options
	// Hash is the program_hash psad must answer with; an edit sends its
	// Prev's Hash as base.
	Hash string
	// Prev is the program version this entry edits (nil for originals).
	Prev *Entry
	// Pair names the program for the full-vs-stubborn outcome check:
	// entries sharing a Pair must report equal outcome sets.
	Pair string
}

// Key is the entry's identity in the expected-answers file: a digest of
// the program text and every option that can change the answer.
func (e *Entry) Key() string {
	o := e.Options
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|red=%s coarsen=%t max=%d exact=%t dom=%s clan=%t\x00%s",
		e.Analysis, o.Reduction, o.Coarsen, o.MaxConfigs, o.ExactKeys, o.Domain, o.ClanFold, e.Src)))
	return hex.EncodeToString(h[:8])
}

// Universe sizes and generator seed bases. The workload seed draws from
// these fixed universes, whose answers expected.json records.
const (
	exploreUniverse  = 128 // default-profile programs of explore-philo
	abstractUniverse = 24  // default-profile edit chains of abstract-edit
	smallUniverse    = 128 // small-profile programs of service-mix

	exploreSeedBase  = 0
	abstractSeedBase = 10000
	smallSeedBase    = 20000
)

type named struct {
	name, src string
}

func fixture(name string, p *lang.Program) named {
	return named{name, lang.Format(p)}
}

// paperFixtures are the programs of the paper's figures and examples.
func paperFixtures() []named {
	return []named{
		fixture("fig2", workloads.Fig2()),
		fixture("fig5-malloc", workloads.Fig5Malloc()),
		fixture("fig8", workloads.Fig8Calls()),
		fixture("side-effects", workloads.SideEffects()),
		fixture("mem-placement", workloads.MemPlacement()),
		fixture("peterson", workloads.Peterson()),
	}
}

// corpus reads testdata/*.cb and testdata/soak/*.cb from the checkout.
func corpus() ([]named, error) {
	var out []named
	for _, glob := range []string{"testdata/*.cb", "testdata/soak/*.cb"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no %s files (run from the repository root)", glob)
		}
		sort.Strings(files)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			name := filepath.Base(f)
			out = append(out, named{name[:len(name)-len(".cb")], string(b)})
		}
	}
	return out, nil
}

func programHash(src string, clan bool) (string, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	return lang.HashProgram(p).ProgramHash(clan), nil
}

func newEntry(name, src, analysis string, o service.Options) (*Entry, error) {
	e := &Entry{Name: name, Src: src, Analysis: analysis, Options: o}
	if analysis == "report" {
		return e, nil
	}
	h, err := programHash(src, o.ClanFold)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	e.Hash = h
	return e, nil
}

var (
	full            = service.Options{Reduction: "full"}
	stubborn        = service.Options{Reduction: "stubborn"}
	stubbornCoarsen = service.Options{Reduction: "stubborn", Coarsen: true}
	fullCoarsen     = service.Options{Reduction: "full", Coarsen: true}
)

// strategy names an explore option set the way paperexp does.
func strategy(o service.Options) string {
	s := o.Reduction
	if s == "" {
		s = "full"
	}
	if o.Coarsen {
		s += "+coarsen"
	}
	return s
}

// Universe holds every entry of one workload, grouped as its stream
// generator draws them.
type Universe struct {
	Workload string
	// Fixed entries are sent once per pass (explore-philo) or are the
	// whole corpus (report-corpus).
	Fixed []*Entry
	// Units are the seeded draws: a full/stubborn pair (explore-philo),
	// a fresh program and its two edits (abstract-edit), or one program
	// under every option combo (service-mix).
	Units [][]*Entry
	// Edits maps a service-mix original entry to its edited versions.
	Edits map[*Entry][]*Entry
}

// All lists every entry of the universe.
func (u *Universe) All() []*Entry {
	out := append([]*Entry(nil), u.Fixed...)
	for _, unit := range u.Units {
		out = append(out, unit...)
	}
	for _, unit := range u.Units {
		for _, e := range unit {
			out = append(out, u.Edits[e]...)
		}
	}
	return out
}

// BuildUniverse constructs the fixed input universe of a workload.
func BuildUniverse(workload string) (*Universe, error) {
	switch workload {
	case "explore-philo":
		return exploreUniverseOf()
	case "abstract-edit":
		return abstractUniverseOf()
	case "service-mix":
		return serviceUniverseOf()
	case "report-corpus":
		return reportUniverseOf()
	}
	return nil, fmt.Errorf("unknown workload %q (%s)", workload, workloadList)
}

const workloadList = "explore-philo|abstract-edit|service-mix|report-corpus"

func exploreUniverseOf() (*Universe, error) {
	u := &Universe{Workload: "explore-philo"}
	philo4 := lang.Format(workloads.Philosophers(4))
	philo5 := lang.Format(workloads.Philosophers(5))
	iw := lang.Format(workloads.IndependentWorkers(3, 3))
	for _, f := range []struct {
		name, src, pair string
		o               service.Options
	}{
		{"philosophers4", philo4, "", full},
		{"philosophers5", philo5, "philosophers5", full},
		{"philosophers5", philo5, "philosophers5", stubborn},
		{"philosophers5", philo5, "philosophers5", stubbornCoarsen},
		{"workers(3,3)", iw, "", full},
		{"workers(3,3)", iw, "", fullCoarsen},
	} {
		f.o.Outcomes = true
		e, err := newEntry(f.name+"/"+strategy(f.o), f.src, "explore", f.o)
		if err != nil {
			return nil, err
		}
		e.Pair = f.pair
		u.Fixed = append(u.Fixed, e)
	}
	for i := 0; i < exploreUniverse; i++ {
		src := progen.GenerateSource(int64(exploreSeedBase+i), progen.DefaultProfile())
		name := fmt.Sprintf("progen-d%d", exploreSeedBase+i)
		var unit []*Entry
		for _, o := range []service.Options{full, stubborn} {
			o.MaxConfigs = 16384
			o.Outcomes = true
			e, err := newEntry(name+"/"+o.Reduction, src, "explore", o)
			if err != nil {
				return nil, err
			}
			e.Pair = name
			unit = append(unit, e)
		}
		u.Units = append(u.Units, unit)
	}
	return u, nil
}

func abstractUniverseOf() (*Universe, error) {
	u := &Universe{Workload: "abstract-edit"}
	for i := 0; i < abstractUniverse; i++ {
		seed := int64(abstractSeedBase + i)
		o := service.Options{Domain: "interval", MaxConfigs: 2048}
		if i%4 == 3 {
			o.Domain = "const"
		}
		src := progen.GenerateSource(seed, progen.DefaultProfile())
		name := fmt.Sprintf("progen-a%d/%s", seed, o.Domain)
		fresh, err := newEntry(name+"/fresh", src, "abstract", o)
		if err != nil {
			return nil, err
		}
		unit := []*Entry{fresh}
		for k := 1; k <= 2; k++ {
			src, _, err = progen.Mutate(src, seed*2+int64(k))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			e, err := newEntry(fmt.Sprintf("%s/edit%d", name, k), src, "abstract", o)
			if err != nil {
				return nil, err
			}
			e.Prev = unit[len(unit)-1]
			unit = append(unit, e)
		}
		u.Units = append(u.Units, unit)
	}
	return u, nil
}

// serviceCombos are the option sets service-mix sends every program
// under; editCombos those its edits are sent under.
var (
	serviceCombos = []struct {
		analysis string
		o        service.Options
	}{
		{"explore", service.Options{Reduction: "full", Outcomes: true}},
		{"explore", stubborn},
		{"explore", stubbornCoarsen},
		{"explore", fullCoarsen},
		{"abstract", service.Options{Domain: "interval"}},
		{"abstract", service.Options{Domain: "const"}},
		{"abstract", service.Options{Domain: "sign"}},
		{"abstract", service.Options{Domain: "interval", ClanFold: true}},
	}
	editCombos = []int{0, 4, 5}
)

func comboName(analysis string, o service.Options) string {
	if analysis == "explore" {
		return strategy(o)
	}
	s := o.Domain
	if o.ClanFold {
		s += "+clan"
	}
	return s
}

func serviceUniverseOf() (*Universe, error) {
	u := &Universe{Workload: "service-mix", Edits: map[*Entry][]*Entry{}}
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	progs = append(progs, paperFixtures()...)
	for i := 0; i < smallUniverse; i++ {
		seed := int64(smallSeedBase + i)
		progs = append(progs, named{fmt.Sprintf("progen-s%d", seed), progen.GenerateSource(seed, progen.SmallProfile())})
	}
	for pi, p := range progs {
		var unit []*Entry
		for ci, c := range serviceCombos {
			e, err := newEntry(p.name+"/"+comboName(c.analysis, c.o), p.src, c.analysis, c.o)
			if err != nil {
				return nil, err
			}
			unit = append(unit, e)
			if !contains(editCombos, ci) {
				continue
			}
			for k := 0; k < 2; k++ {
				src, _, err := progen.Mutate(p.src, int64(pi*2+k))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", p.name, err)
				}
				ed, err := newEntry(fmt.Sprintf("%s/edit%d", e.Name, k), src, c.analysis, c.o)
				if err != nil {
					return nil, err
				}
				ed.Prev = e
				u.Edits[e] = append(u.Edits[e], ed)
			}
		}
		u.Units = append(u.Units, unit)
	}
	return u, nil
}

func reportUniverseOf() (*Universe, error) {
	u := &Universe{Workload: "report-corpus"}
	progs, err := corpus()
	if err != nil {
		return nil, err
	}
	progs = append(progs, paperFixtures()...)
	progs = append(progs, named{"philosophers4", lang.Format(workloads.Philosophers(4))})
	for _, p := range progs {
		e, err := newEntry(p.name+"/report", p.src, "report", service.Options{})
		if err != nil {
			return nil, err
		}
		u.Fixed = append(u.Fixed, e)
	}
	return u, nil
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
