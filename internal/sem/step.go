package sem

import (
	"fmt"
	"strconv"

	"psa/internal/lang"
	"psa/internal/pstring"
)

// Event records one shared-memory access performed by a transition, with
// the instrumentation the paper's analyses need: which process, which
// statement, which location, read or write, the procedure string at the
// access, and (for heap cells) the object's allocation site and birthdate.
type Event struct {
	ProcPath string
	Stmt     lang.NodeID
	Kind     AccessKind
	Loc      Loc
	PStr     *pstring.P
	// Heap instrumentation (zero values for globals):
	Site  lang.NodeID
	Birth *pstring.P
}

// AllocEvent records one dynamic allocation.
type AllocEvent struct {
	ID    int
	Count int
	Site  lang.NodeID
	Birth *pstring.P
	Proc  string
}

// StepResult is the outcome of one atomic transition.
type StepResult struct {
	Config *Config
	Events []Event
	Allocs []AllocEvent
	// Stmt is the statement that executed.
	Stmt lang.Stmt
	// Proc is the path of the process that moved.
	Proc string
}

// Step executes one atomic transition of the process at index procIdx and
// returns the successor configuration (never mutating the receiver). A
// runtime error yields a terminal error configuration, not a Go error.
func (c *Config) Step(procIdx int) *StepResult { return c.step(procIdx, false) }

// StepQuiet is Step without access/allocation instrumentation: the
// returned StepResult carries no Events or Allocs. The transition itself
// is identical — the split-write decision that Step derives from the
// event stream is tracked independently — so callers that consume only
// the successor configuration (the explorers, unless a Sink or event
// collection needs the stream) skip the per-access Event allocations.
func (c *Config) StepQuiet(procIdx int) *StepResult { return c.step(procIdx, true) }

func (c *Config) step(procIdx int, quiet bool) *StepResult {
	pr := c.Procs[procIdx]
	pending := pr.Status == StatusRunning && c.hasPending(pr)
	stmt := c.NextStmt(procIdx)
	if stmt == nil && !pending {
		panic(fmt.Sprintf("sem: Step on disabled process %s", c.Procs[procIdx].Path))
	}
	c2 := c.clone()
	st := &stepper{cfg: c2, cloned: map[string]bool{}, quiet: quiet}
	p := st.mutProcAt(procIdx)
	res := &StepResult{Config: c2, Stmt: stmt, Proc: p.Path}
	st.res = res
	st.proc = p

	var err error
	if pending {
		err = st.commitPending()
	} else {
		err = st.exec(stmt)
	}
	if err != nil {
		c2.Err = err.Error()
		errNode := lang.NodeID(0)
		if stmt != nil {
			errNode = stmt.NodeID()
		}
		if re, ok := err.(*RuntimeError); ok && re.Stmt != 0 {
			errNode = re.Stmt
		}
		c2.ErrStmt = errNode
		return res
	}
	st.settle(p)
	return res
}

// commitPending performs the write phase of a split transition.
func (st *stepper) commitPending() error {
	f := st.frame()
	op := f.pending
	f.pending = nil
	stmt := st.cfg.Prog.Node(op.stmt).(lang.Stmt)
	if err := st.storeDest(stmt, op.dest, op.val); err != nil {
		return err
	}
	if op.bump {
		st.bump()
	}
	return nil
}

// splitWrite decides whether a statement that computed val for dest must
// publish the write as a separate transition: under GranRef, yes when the
// statement already performed a critical (shared) read and the destination
// is itself shared — that would be two critical references in one action.
func (st *stepper) splitWrite(dest retDest) bool {
	if st.cfg.Gran != GranRef || dest.kind != retLoc || !st.cfg.isSharedLoc(dest.loc) {
		return false
	}
	// sharedRead mirrors "some recorded event is a shared read" (every
	// event carries st.proc.Path) and survives quiet mode, where the
	// event stream itself is not materialized.
	return st.sharedRead
}

// stepper carries the mutable state of one transition.
type stepper struct {
	cfg    *Config
	proc   *Process
	res    *StepResult
	cloned map[string]bool
	// quiet suppresses Event/AllocEvent materialization (StepQuiet);
	// sharedRead remembers that the step performed a critical shared
	// read, the one fact splitWrite needs from the event stream.
	quiet      bool
	sharedRead bool
}

// mutProcAt clones the process at index i (once per step) and returns it.
func (st *stepper) mutProcAt(i int) *Process {
	p := st.cfg.Procs[i]
	if st.cloned[p.Path] {
		return p
	}
	st.cloned[p.Path] = true
	return st.cfg.cloneProc(i)
}

// mutProc clones the process with the given path.
func (st *stepper) mutProc(path string) *Process {
	for i, p := range st.cfg.Procs {
		if p.Path == path {
			return st.mutProcAt(i)
		}
	}
	panic("sem: unknown process " + path)
}

func (st *stepper) frame() *Frame { return st.proc.Frames[len(st.proc.Frames)-1] }

// bump advances the instruction pointer past the current statement.
func (st *stepper) bump() {
	f := st.frame()
	f.Blocks[len(f.Blocks)-1].idx++
}

func (st *stepper) rerr(s lang.Stmt, format string, args ...any) error {
	return &RuntimeError{Stmt: s.NodeID(), Pos: s.NodePos(), Msg: fmt.Sprintf(format, args...)}
}

// event records a shared access.
func (st *stepper) event(stmt lang.NodeID, kind AccessKind, loc Loc) {
	if kind == Read && st.cfg.isSharedLoc(loc) {
		st.sharedRead = true
	}
	if st.quiet {
		return
	}
	ev := Event{
		ProcPath: st.proc.Path,
		Stmt:     stmt,
		Kind:     kind,
		Loc:      loc,
		PStr:     st.proc.PStr,
	}
	if loc.Space == SpaceHeap {
		if obj := st.cfg.Heap[loc.Base]; obj != nil {
			ev.Site = obj.Site
			ev.Birth = obj.Birth
		}
	}
	st.res.Events = append(st.res.Events, ev)
}

// exec runs one statement. st.proc is already a private clone.
func (st *stepper) exec(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.VarStmt:
		if call, ok := s.Init.(*lang.CallExpr); ok {
			st.bump()
			return st.call(s, call, retDest{kind: retLocal, slot: s.Slot})
		}
		v, err := st.eval(s, s.Init)
		if err != nil {
			return err
		}
		st.bump()
		st.frame().Locals[s.Slot] = v
		return nil

	case *lang.AssignStmt:
		if call, ok := s.Value.(*lang.CallExpr); ok {
			dest, err := st.destOf(s, s.Target)
			if err != nil {
				return err
			}
			st.bump()
			return st.call(s, call, dest)
		}
		v, err := st.eval(s, s.Value)
		if err != nil {
			return err
		}
		dest, err := st.destOf(s, s.Target)
		if err != nil {
			return err
		}
		if st.splitWrite(dest) {
			st.frame().pending = &pendingOp{dest: dest, val: v, stmt: s.NodeID(), bump: true}
			return nil
		}
		if err := st.storeDest(s, dest, v); err != nil {
			return err
		}
		st.bump()
		return nil

	case *lang.CallStmt:
		st.bump()
		return st.call(s, s.Call, retDest{kind: retNone})

	case *lang.CobeginStmt:
		st.bump()
		return st.fork(s)

	case *lang.IfStmt:
		v, err := st.eval(s, s.Cond)
		if err != nil {
			return err
		}
		b, err := v.Truthy()
		if err != nil {
			return st.rerr(s, "if: %v", err)
		}
		st.bump()
		f := st.frame()
		if b {
			f.Blocks = append(f.Blocks, blockPos{block: s.Then, idx: 0})
		} else if s.Else != nil {
			f.Blocks = append(f.Blocks, blockPos{block: s.Else, idx: 0})
		}
		return nil

	case *lang.WhileStmt:
		v, err := st.eval(s, s.Cond)
		if err != nil {
			return err
		}
		b, err := v.Truthy()
		if err != nil {
			return st.rerr(s, "while: %v", err)
		}
		f := st.frame()
		if b {
			// Stay at the while statement; push the body.
			f.Blocks = append(f.Blocks, blockPos{block: s.Body, idx: 0})
		} else {
			st.bump()
		}
		return nil

	case *lang.ReturnStmt:
		v := Undef
		if s.Value != nil {
			var err error
			v, err = st.eval(s, s.Value)
			if err != nil {
				return err
			}
		}
		return st.ret(s, v, s.Value != nil)

	case *lang.SkipStmt:
		st.bump()
		return nil

	case *lang.AssertStmt:
		v, err := st.eval(s, s.Cond)
		if err != nil {
			return err
		}
		b, err := v.Truthy()
		if err != nil {
			return st.rerr(s, "assert: %v", err)
		}
		if !b {
			return st.rerr(s, "assertion failed: %s", lang.ExprString(s.Cond))
		}
		st.bump()
		return nil

	case *lang.FreeStmt:
		v, err := st.eval(s, s.Ptr)
		if err != nil {
			return err
		}
		if v.Kind != KindPtr || v.Space != SpaceHeap {
			return st.rerr(s, "free of non-heap value %s", v)
		}
		l := v.Loc()
		if l.Off != 0 {
			return st.rerr(s, "free of interior pointer %s", v)
		}
		obj := st.cfg.Heap[l.Base]
		if obj == nil {
			return st.rerr(s, "double free of %s", v)
		}
		// Freeing conflicts with every access to the object: record a
		// write event per cell.
		for off := range obj.Cells {
			st.event(s.NodeID(), Write, Loc{Space: SpaceHeap, Base: l.Base, Off: off})
		}
		h := make(map[int]*HeapObj, len(st.cfg.Heap))
		for k, o := range st.cfg.Heap {
			if k != l.Base {
				h[k] = o
			}
		}
		st.cfg.Heap = h
		st.bump()
		return nil
	}
	return st.rerr(s, "unknown statement %T", s)
}

// destOf computes where an assignment's call result should go; the target
// address of "*p = f(x)" is evaluated at call time.
func (st *stepper) destOf(s lang.Stmt, target lang.Expr) (retDest, error) {
	switch t := target.(type) {
	case *lang.VarRef:
		switch t.Kind {
		case lang.RefLocal:
			return retDest{kind: retLocal, slot: t.Index}, nil
		case lang.RefGlobal:
			return retDest{kind: retLoc, loc: Loc{Space: SpaceGlobal, Base: t.Index}}, nil
		}
		return retDest{}, st.rerr(s, "bad assignment target %s", t.Name)
	case *lang.DerefExpr:
		pv, err := st.eval(s, t.Ptr)
		if err != nil {
			return retDest{}, err
		}
		if pv.Kind != KindPtr {
			return retDest{}, st.rerr(s, "store through non-pointer %s", pv)
		}
		return retDest{kind: retLoc, loc: pv.Loc()}, nil
	}
	return retDest{}, st.rerr(s, "bad assignment target %T", target)
}

func (st *stepper) storeDest(s lang.Stmt, dest retDest, v Value) error {
	switch dest.kind {
	case retNone:
		return nil
	case retLocal:
		st.frame().Locals[dest.slot] = v
		return nil
	default:
		return st.writeLoc(s, dest.loc, v)
	}
}

// call pushes an activation of the called function.
func (st *stepper) call(s lang.Stmt, c *lang.CallExpr, dest retDest) error {
	cv, err := st.eval(s, c.Callee)
	if err != nil {
		return err
	}
	if cv.Kind != KindFn {
		return st.rerr(s, "call of non-function %s", cv)
	}
	fn := st.cfg.Prog.Funcs[cv.FnIndex()]
	if len(c.Args) != len(fn.Params) {
		return st.rerr(s, "call of %s with %d args, want %d", fn.Name, len(c.Args), len(fn.Params))
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		if args[i], err = st.eval(s, a); err != nil {
			return err
		}
	}
	info := st.cfg.Prog.ResolvedInfo().Funcs[fn]
	nf := &Frame{
		Fn:       fn,
		Locals:   make([]Value, info.FrameSize),
		Blocks:   []blockPos{{block: fn.Body, idx: 0}},
		Dest:     dest,
		hasEntry: true,
	}
	copy(nf.Locals, args)
	st.proc.Frames = append(st.proc.Frames, nf)
	st.cfg.nextInst++
	st.proc.PStr = pstring.Push(st.proc.PStr, pstring.Sym{
		Kind: pstring.SymCall, Site: int(s.NodeID()), Which: fn.Index, Inst: st.cfg.nextInst,
	})
	return nil
}

// ret pops the current frame and delivers the result to the caller. When
// the return value was computed from shared reads and lands in a shared
// destination, the delivery splits off as its own transition.
func (st *stepper) ret(s lang.Stmt, v Value, hasValue bool) error {
	f := st.frame()
	if f.Dest.kind != retNone && !hasValue {
		return st.rerr(s, "caller of %s expects a value but return carries none", f.Fn.Name)
	}
	split := st.splitWrite(f.Dest)
	st.proc.Frames = st.proc.Frames[:len(st.proc.Frames)-1]
	if f.hasEntry {
		st.proc.PStr = pstring.Pop(st.proc.PStr)
	}
	if len(st.proc.Frames) == 0 {
		// Returning from main.
		return nil
	}
	if split {
		st.frame().pending = &pendingOp{dest: f.Dest, val: v, stmt: s.NodeID(), bump: false}
		return nil
	}
	return st.storeDest(s, f.Dest, v)
}

// fork spawns one child process per cobegin arm; the parent waits.
func (st *stepper) fork(s *lang.CobeginStmt) error {
	parent := st.proc
	parent.Status = StatusWaitJoin
	parent.LiveKids = len(s.Arms)
	pf := parent.Frames[len(parent.Frames)-1]
	st.cfg.nextInst++
	inst := st.cfg.nextInst
	for i, arm := range s.Arms {
		locals := make([]Value, len(pf.Locals))
		copy(locals, pf.Locals) // copy-in of enclosing locals (read-only in arms)
		child := &Process{
			Path:      parent.Path + "/" + strconv.Itoa(i),
			Status:    StatusRunning,
			Parent:    parent.Path,
			ArmOfStmt: s.NodeID(),
			PStr: pstring.Push(parent.PStr, pstring.Sym{
				Kind: pstring.SymThread, Site: int(s.NodeID()), Which: i, Inst: inst,
			}),
			Frames: []*Frame{{
				Fn:       pf.Fn,
				Locals:   locals,
				Blocks:   []blockPos{{block: arm, idx: 0}},
				hasEntry: true,
			}},
		}
		st.cloned[child.Path] = true
		st.cfg.insertProcSorted(child)
		// The child might have an empty arm; settle it immediately.
		st.settle(child)
	}
	return nil
}

// settle eagerly resolves exhausted control: popping finished blocks,
// performing implicit returns, completing arms, and resuming parents whose
// last child finished. None of these movements touches shared storage, so
// folding them into the preceding transition preserves all interleavings
// of shared accesses.
func (st *stepper) settle(p *Process) {
	for {
		if p.Status != StatusRunning {
			return
		}
		if len(p.Frames) == 0 {
			st.finish(p)
			return
		}
		f := p.Frames[len(p.Frames)-1]
		if f.pending != nil {
			// A split write is the next action; do not advance past it.
			return
		}
		if len(f.Blocks) == 0 {
			// Fell off the end of a function body: implicit return.
			if f.Dest.kind != retNone {
				st.cfg.Err = fmt.Sprintf("function %s fell off its end but the caller uses its result", f.Fn.Name)
				return
			}
			p.Frames = p.Frames[:len(p.Frames)-1]
			if f.hasEntry {
				p.PStr = pstring.Pop(p.PStr)
			}
			continue
		}
		bp := &f.Blocks[len(f.Blocks)-1]
		if bp.idx >= len(bp.block.Stmts) {
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			continue
		}
		return
	}
}

// finish handles a process that ran out of work entirely.
func (st *stepper) finish(p *Process) {
	if p.Parent == "" {
		p.Status = StatusDone
		return
	}
	// Arm completion: remove the child, notify the parent.
	for i, q := range st.cfg.Procs {
		if q.Path == p.Path {
			st.cfg.removeProc(i)
			break
		}
	}
	parent := st.mutProc(p.Parent)
	parent.LiveKids--
	if parent.LiveKids == 0 {
		parent.Status = StatusRunning
		st.settle(parent)
	}
}
