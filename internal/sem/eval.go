package sem

import (
	"fmt"

	"psa/internal/lang"
)

// eval evaluates an expression within the current frame. Expressions have
// no nested calls (resolver guarantee), so evaluation terminates and only
// reads storage — except malloc, which allocates. All shared reads are
// recorded as events attributed to the enclosing statement s.
func (st *stepper) eval(s lang.Stmt, e lang.Expr) (Value, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return IntVal(e.Value), nil

	case *lang.VarRef:
		switch e.Kind {
		case lang.RefLocal:
			return st.frame().Locals[e.Index], nil
		case lang.RefGlobal:
			return st.readLoc(s, Loc{Space: SpaceGlobal, Base: e.Index})
		case lang.RefFunc:
			return FnVal(e.Index), nil
		}
		return Undef, st.rerr(s, "unresolved name %q", e.Name)

	case *lang.UnaryExpr:
		v, err := st.eval(s, e.X)
		if err != nil {
			return Undef, err
		}
		switch e.Op {
		case lang.TokMinus:
			if v.Kind != KindInt {
				return Undef, st.rerr(s, "unary minus on %s", v)
			}
			return IntVal(-v.N), nil
		case lang.TokNot:
			b, err := v.Truthy()
			if err != nil {
				return Undef, st.rerr(s, "! on %s", v)
			}
			return boolVal(!b), nil
		}
		return Undef, st.rerr(s, "unknown unary operator")

	case *lang.DerefExpr:
		pv, err := st.eval(s, e.Ptr)
		if err != nil {
			return Undef, err
		}
		if pv.Kind != KindPtr {
			return Undef, st.rerr(s, "dereference of non-pointer %s", pv)
		}
		return st.readLoc(s, pv.Loc())

	case *lang.AddrExpr:
		return PtrVal(Loc{Space: SpaceGlobal, Base: e.Index}), nil

	case *lang.BinaryExpr:
		x, err := st.eval(s, e.X)
		if err != nil {
			return Undef, err
		}
		y, err := st.eval(s, e.Y)
		if err != nil {
			return Undef, err
		}
		return st.binop(s, e.Op, x, y)

	case *lang.CallExpr:
		return Undef, st.rerr(s, "internal: nested call reached the evaluator")

	case *lang.MallocExpr:
		n, err := st.eval(s, e.Count)
		if err != nil {
			return Undef, err
		}
		if n.Kind != KindInt || n.N <= 0 {
			return Undef, st.rerr(s, "malloc size must be a positive integer, got %s", n)
		}
		if n.N > 1<<16 {
			return Undef, st.rerr(s, "malloc size %d too large", n.N)
		}
		return st.malloc(s, e, int(n.N))
	}
	return Undef, st.rerr(s, "unknown expression %T", e)
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func (st *stepper) binop(s lang.Stmt, op lang.TokKind, x, y Value) (Value, error) {
	v, err := BinopVal(op, x, y)
	if err != nil {
		return Undef, st.rerr(s, "%v", err)
	}
	return v, nil
}

// BinopVal applies a binary operator to two values. It is pure: the same
// function serves the real evaluator, the dry-run access analysis, and the
// abstract interpreter's concrete corner cases.
func BinopVal(op lang.TokKind, x, y Value) (Value, error) {
	switch op {
	case lang.TokParallel, lang.TokAnd:
		bx, err := x.Truthy()
		if err != nil {
			return Undef, fmt.Errorf("logical operand: %v", err)
		}
		by, err := y.Truthy()
		if err != nil {
			return Undef, fmt.Errorf("logical operand: %v", err)
		}
		if op == lang.TokAnd {
			return boolVal(bx && by), nil
		}
		return boolVal(bx || by), nil

	case lang.TokEq:
		return boolVal(x.Equal(y)), nil
	case lang.TokNe:
		return boolVal(!x.Equal(y)), nil
	}

	// Pointer arithmetic: ptr ± int.
	if x.Kind == KindPtr && y.Kind == KindInt && (op == lang.TokPlus || op == lang.TokMinus) {
		if op == lang.TokMinus {
			x.N -= y.N
		} else {
			x.N += y.N
		}
		return x, nil
	}
	if x.Kind == KindInt && y.Kind == KindPtr && op == lang.TokPlus {
		y.N += x.N
		return y, nil
	}

	if x.Kind != KindInt || y.Kind != KindInt {
		return Undef, fmt.Errorf("arithmetic on %s and %s", x, y)
	}
	a, b := x.N, y.N
	switch op {
	case lang.TokPlus:
		return IntVal(a + b), nil
	case lang.TokMinus:
		return IntVal(a - b), nil
	case lang.TokStar:
		return IntVal(a * b), nil
	case lang.TokSlash:
		if b == 0 {
			return Undef, fmt.Errorf("division by zero")
		}
		return IntVal(a / b), nil
	case lang.TokPercent:
		if b == 0 {
			return Undef, fmt.Errorf("modulo by zero")
		}
		return IntVal(a % b), nil
	case lang.TokLt:
		return boolVal(a < b), nil
	case lang.TokLe:
		return boolVal(a <= b), nil
	case lang.TokGt:
		return boolVal(a > b), nil
	case lang.TokGe:
		return boolVal(a >= b), nil
	}
	return Undef, fmt.Errorf("unknown operator %s", op)
}

// malloc creates a fresh heap object of count cells.
func (st *stepper) malloc(s lang.Stmt, e *lang.MallocExpr, count int) (Value, error) {
	id := st.cfg.nextAlloc
	st.cfg.nextAlloc++
	obj := &HeapObj{
		Cells: make([]Value, count),
		Site:  e.NodeID(),
		Birth: st.proc.PStr,
		Proc:  st.proc.Path,
	}
	h := make(map[int]*HeapObj, len(st.cfg.Heap)+1)
	for k, o := range st.cfg.Heap {
		h[k] = o
	}
	h[id] = obj
	st.cfg.Heap = h
	if !st.quiet {
		st.res.Allocs = append(st.res.Allocs, AllocEvent{
			ID: id, Count: count, Site: e.NodeID(), Birth: st.proc.PStr, Proc: st.proc.Path,
		})
	}
	return PtrVal(Loc{Space: SpaceHeap, Base: id}), nil
}

// readLoc loads a shared cell, recording the event.
func (st *stepper) readLoc(s lang.Stmt, l Loc) (Value, error) {
	v, err := st.cfg.load(l)
	if err != nil {
		return Undef, st.rerr(s, "%v", err)
	}
	st.event(s.NodeID(), Read, l)
	return v, nil
}

// writeLoc stores v into a shared cell, recording the event.
func (st *stepper) writeLoc(s lang.Stmt, l Loc, v Value) error {
	switch l.Space {
	case SpaceGlobal:
		if l.Base < 0 || l.Base >= len(st.cfg.Globals) || l.Off != 0 {
			return st.rerr(s, "store to bad global address %s", l)
		}
		st.cfg.mutGlobals()[l.Base] = v
	case SpaceHeap:
		obj := st.cfg.Heap[l.Base]
		if obj == nil {
			return st.rerr(s, "store through dangling pointer %s", l)
		}
		if l.Off < 0 || l.Off >= len(obj.Cells) {
			return st.rerr(s, "heap store out of bounds: %s (size %d)", l, len(obj.Cells))
		}
		st.cfg.mutHeapObj(l.Base).Cells[l.Off] = v
	}
	st.event(s.NodeID(), Write, l)
	return nil
}

// load reads a shared cell without instrumentation (shared by the real
// evaluator and the dry-run access analysis).
func (c *Config) load(l Loc) (Value, error) {
	switch l.Space {
	case SpaceGlobal:
		if l.Base < 0 || l.Base >= len(c.Globals) || l.Off != 0 {
			return Undef, &RuntimeError{Msg: "load from bad global address " + l.String()}
		}
		return c.Globals[l.Base], nil
	default:
		obj := c.Heap[l.Base]
		if obj == nil {
			return Undef, &RuntimeError{Msg: "load through dangling pointer " + l.String()}
		}
		if l.Off < 0 || l.Off >= len(obj.Cells) {
			return Undef, &RuntimeError{Msg: "heap load out of bounds: " + l.String()}
		}
		return obj.Cells[l.Off], nil
	}
}
