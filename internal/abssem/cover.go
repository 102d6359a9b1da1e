// Coverage predicate relating concrete terminal configurations to
// abstract invariants: the soundness oracle of the differential soak
// harness (cmd/psasoak) and of any future cross-checking client.
package abssem

import (
	"fmt"
	"sort"

	"psa/internal/absdom"
	"psa/internal/pstring"
	"psa/internal/sem"
)

// Covers checks that the concrete terminal configuration c is accounted
// for by the analysis result: an error terminal must be predicted by
// MayError, and a normal terminal's store must be covered by the joined
// abstract terminal store. A nil error means covered; a non-nil error
// pinpoints the first violation (a genuine unsoundness in the abstract
// engine, or a harness bug — both worth a reproducer).
//
// The check is meaningful only when r came from a non-truncated run on
// the same program with the given opts.
func (r *Result) Covers(c *sem.Config, opts Options) error {
	if c.Err != "" {
		if !r.MayError {
			return fmt.Errorf("concrete error terminal %q not predicted (MayError = false)", c.Err)
		}
		return nil
	}
	if r.Terminal == nil {
		return fmt.Errorf("concrete normal terminal exists but the abstract run reached no terminal")
	}
	return StoreCovers(r.Terminal, c, opts)
}

// StoreCovers checks that every shared-memory value of the concrete
// configuration c lies in the concretization of the abstract store st.
// opts supplies the birthdate k-limit (so concrete allocation birthdates
// map to the same abstract objects the engine used) and the ClanFold
// flag.
//
// Three deliberate leniencies keep the predicate free of false alarms,
// each tracking an approximation the abstract engine makes by design:
//
//   - under ClanFold, folded arms allocate under the representative arm's
//     birthdate, so heap matching falls back from exact birthdate to
//     allocation site;
//   - a concrete heap object whose site has no abstract summary at all is
//     skipped: recursion beyond RecLimit is havocked through its effect
//     summary, which clobbers globals but never materializes the callee's
//     allocations;
//   - a dangling pointer (its object freed) cannot be mapped to a site,
//     so any heap-directed abstract pointer set covers it.
func StoreCovers(st *absdom.Store, c *sem.Config, opts Options) error {
	opts.fill()
	for i, v := range c.Globals {
		av := st.Global(i)
		if err := valueCovered(av, v, c, opts); err != nil {
			return fmt.Errorf("global %s: %w", c.Prog.Globals[i].Name, err)
		}
	}

	// Heap objects, in deterministic allocation order.
	ids := make([]int, 0, len(c.Heap))
	for id := range c.Heap {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		obj := c.Heap[id]
		av, ok := heapSummary(st, obj, opts)
		if !ok {
			continue // site never abstractly materialized (havocked call)
		}
		for ci, cell := range obj.Cells {
			if err := valueCovered(av, cell, c, opts); err != nil {
				return fmt.Errorf("heap h%d+%d (site %d, birth %q): %w",
					id, ci, obj.Site, pstring.Abstract(obj.Birth, opts.KBirth), err)
			}
		}
	}
	return nil
}

// heapSummary finds the abstract summary covering the concrete object:
// exact (site, birthdate) first, then the join of all summaries at the
// same site (ClanFold renames arm indices inside birthdates), then
// (false) when the site has no summary at all.
func heapSummary(st *absdom.Store, obj *sem.HeapObj, opts Options) (absdom.Value, bool) {
	exact := absdom.Target{Heap: true, Site: obj.Site, Birth: pstring.Abstract(obj.Birth, opts.KBirth)}
	if v := st.Heap(exact); !v.IsBot() {
		return v, true
	}
	joined := absdom.Bot(st.Domain())
	found := false
	for _, t := range st.HeapTargets() {
		if t.Heap && t.Site == obj.Site {
			joined = joined.Join(st.Heap(t))
			found = true
		}
	}
	return joined, found
}

// valueCovered reports γ-membership of the concrete value v in the
// abstract value av, resolving pointer targets through the concrete heap.
func valueCovered(av absdom.Value, v sem.Value, c *sem.Config, opts Options) error {
	switch v.Kind {
	case sem.KindUndef:
		if !av.CoversUndef() {
			return fmt.Errorf("undef not covered by %s", av)
		}
	case sem.KindInt:
		if !av.CoversInt(v.N) {
			return fmt.Errorf("int %d not covered by %s", v.N, av)
		}
	case sem.KindFn:
		if !av.CoversFn(v.FnIndex()) {
			return fmt.Errorf("fn%d not covered by %s", v.FnIndex(), av)
		}
	case sem.KindPtr:
		if av.Ptrs.All {
			return nil
		}
		l := v.Loc()
		if l.Space == sem.SpaceGlobal {
			t := absdom.Target{Index: l.Base}
			if !av.CoversPtrTarget(t) {
				return fmt.Errorf("pointer %s not covered by %s", l, av)
			}
			return nil
		}
		obj, live := c.Heap[l.Base]
		if !live {
			// Dangling: the object was freed, its site is unrecoverable.
			// Any heap-directed abstract pointer covers it.
			if ts, exact := av.PtrTargets(); exact {
				for _, t := range ts {
					if t.Heap {
						return nil
					}
				}
				return fmt.Errorf("dangling pointer %s not covered by %s (no heap target)", l, av)
			}
			return nil
		}
		exact := absdom.Target{Heap: true, Site: obj.Site, Birth: pstring.Abstract(obj.Birth, opts.KBirth)}
		if av.CoversPtrTarget(exact) {
			return nil
		}
		// Site-only fallback (ClanFold renames arm indices in birthdates).
		if ts, ok := av.PtrTargets(); ok {
			for _, t := range ts {
				if t.Heap && t.Site == obj.Site {
					return nil
				}
			}
		}
		return fmt.Errorf("heap pointer %s (site %d, birth %q) not covered by %s",
			l, obj.Site, exact.Birth, av)
	}
	return nil
}
