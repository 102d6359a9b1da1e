package sem

import (
	"psa/internal/lang"
)

// AccessSet is the exact set of shared locations the next atomic action of
// a process will read and write, computed by dry-running the action
// against the current configuration (paper §2.3: "let r_i and w_i be the
// set of locations to be read and written in process i's next actions").
type AccessSet struct {
	Reads  []Loc
	Writes []Loc
}

// add appends l once.
func addLoc(ls []Loc, l Loc) []Loc {
	for _, x := range ls {
		if x == l {
			return ls
		}
	}
	return append(ls, l)
}

// NextAccess computes the AccessSet of the next action of the process at
// procIdx. It never mutates the configuration: malloc is simulated with a
// phantom allocation (id −1−n), whose cells no other process can reach.
// On a dynamic error the partial set gathered so far is returned — the
// real Step will produce the error configuration.
func (c *Config) NextAccess(procIdx int) AccessSet {
	p := c.Procs[procIdx]
	if p.Status != StatusRunning {
		return AccessSet{}
	}
	if c.hasPending(p) {
		op := p.Frames[len(p.Frames)-1].pending
		if op.dest.kind == retLoc {
			return AccessSet{Writes: []Loc{op.dest.loc}}
		}
		return AccessSet{}
	}
	stmt := c.nextStmt(p)
	if stmt == nil {
		return AccessSet{}
	}
	d := &dryRun{cfg: c, frame: p.Frames[len(p.Frames)-1]}

	switch s := stmt.(type) {
	case *lang.VarStmt:
		d.expr(s.Init)
	case *lang.AssignStmt:
		d.expr(s.Value)
		d.target(s.Target)
	case *lang.CallStmt:
		d.expr(s.Call.Callee)
		for _, a := range s.Call.Args {
			d.expr(a)
		}
	case *lang.CobeginStmt, *lang.SkipStmt:
		// No shared accesses.
	case *lang.IfStmt:
		d.expr(s.Cond)
	case *lang.WhileStmt:
		d.expr(s.Cond)
	case *lang.ReturnStmt:
		if s.Value != nil {
			d.expr(s.Value)
		}
		f := p.Frames[len(p.Frames)-1]
		if f.Dest.kind == retLoc {
			d.acc.Writes = addLoc(d.acc.Writes, f.Dest.loc)
		}
	case *lang.AssertStmt:
		d.expr(s.Cond)
	case *lang.FreeStmt:
		if v, ok := d.expr(s.Ptr); ok && v.Kind == KindPtr && v.Space == SpaceHeap {
			base := v.Loc().Base
			if obj := c.Heap[base]; obj != nil {
				for off := range obj.Cells {
					d.acc.Writes = addLoc(d.acc.Writes, Loc{Space: SpaceHeap, Base: base, Off: off})
				}
			}
		}
	}
	return d.acc
}

// dryRun evaluates expressions against a frozen configuration, collecting
// shared accesses.
type dryRun struct {
	cfg      *Config
	frame    *Frame
	acc      AccessSet
	phantoms int
}

// expr evaluates e; ok is false when evaluation would fault (the partial
// access set remains valid as an under-approximation of a faulting step,
// whose successor is an error state anyway).
func (d *dryRun) expr(e lang.Expr) (Value, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return IntVal(e.Value), true
	case *lang.VarRef:
		switch e.Kind {
		case lang.RefLocal:
			return d.frame.Locals[e.Index], true
		case lang.RefGlobal:
			l := Loc{Space: SpaceGlobal, Base: e.Index}
			d.acc.Reads = addLoc(d.acc.Reads, l)
			v, err := d.cfg.load(l)
			return v, err == nil
		case lang.RefFunc:
			return FnVal(e.Index), true
		}
		return Undef, false
	case *lang.UnaryExpr:
		v, ok := d.expr(e.X)
		if !ok {
			return Undef, false
		}
		switch e.Op {
		case lang.TokMinus:
			if v.Kind != KindInt {
				return Undef, false
			}
			return IntVal(-v.N), true
		default:
			b, err := v.Truthy()
			return boolVal(!b), err == nil
		}
	case *lang.DerefExpr:
		pv, ok := d.expr(e.Ptr)
		if !ok || pv.Kind != KindPtr {
			return Undef, false
		}
		d.acc.Reads = addLoc(d.acc.Reads, pv.Loc())
		v, err := d.cfg.load(pv.Loc())
		return v, err == nil
	case *lang.AddrExpr:
		return PtrVal(Loc{Space: SpaceGlobal, Base: e.Index}), true
	case *lang.BinaryExpr:
		x, ok := d.expr(e.X)
		if !ok {
			return Undef, false
		}
		y, ok := d.expr(e.Y)
		if !ok {
			return Undef, false
		}
		v, err := BinopVal(e.Op, x, y)
		return v, err == nil
	case *lang.CallExpr:
		if _, ok := d.expr(e.Callee); !ok {
			return Undef, false
		}
		for _, a := range e.Args {
			if _, ok := d.expr(a); !ok {
				return Undef, false
			}
		}
		return Undef, true
	case *lang.MallocExpr:
		if _, ok := d.expr(e.Count); !ok {
			return Undef, false
		}
		d.phantoms++
		return PtrVal(Loc{Space: SpaceHeap, Base: -d.phantoms}), true
	}
	return Undef, false
}

// target records the write performed by assigning to an lvalue.
func (d *dryRun) target(t lang.Expr) {
	switch t := t.(type) {
	case *lang.VarRef:
		if t.Kind == lang.RefGlobal {
			d.acc.Writes = addLoc(d.acc.Writes, Loc{Space: SpaceGlobal, Base: t.Index})
		}
	case *lang.DerefExpr:
		pv, ok := d.expr(t.Ptr)
		if ok && pv.Kind == KindPtr {
			d.acc.Writes = addLoc(d.acc.Writes, pv.Loc())
		}
	}
}
