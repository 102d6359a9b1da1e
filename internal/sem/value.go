// Package sem implements the standard (concrete) semantics of the cobegin
// language: values, stores, processes, configurations, and the small-step
// interleaving transition relation under sequential consistency [Lam79].
// It is instrumented with procedure strings [Har89] so that exploration
// (package explore) can derive side effects, data dependences, and object
// lifetimes (paper §5).
//
// Atomicity: one statement is one atomic transition. Calls may not nest
// inside larger expressions (enforced by the resolver), so each transition
// performs a bounded amount of work and reads/writes a statically
// discoverable set of locations — exactly what the stubborn-set algorithm
// (paper §2.3) needs.
package sem

import (
	"fmt"

	"psa/internal/lang"
)

// Space distinguishes addressable storage regions. Locals live inside
// frames and are not addressable, so they never appear in a Loc.
type Space uint8

// Storage spaces.
const (
	SpaceGlobal Space = iota
	SpaceHeap
)

// Loc is the address of one shared-memory cell: a global variable or a
// heap cell. Loc is a value type usable as a map key; the read/write sets
// driving stubborn-set expansion are sets of Locs.
type Loc struct {
	Space Space
	// Base is the global index (SpaceGlobal) or allocation ID (SpaceHeap).
	Base int
	// Off is the cell offset within a heap allocation (0 for globals).
	Off int
}

// String renders the location.
func (l Loc) String() string {
	if l.Space == SpaceGlobal {
		return fmt.Sprintf("g%d", l.Base)
	}
	return fmt.Sprintf("h%d+%d", l.Base, l.Off)
}

// Kind tags runtime values.
type Kind uint8

// Value kinds.
const (
	KindUndef Kind = iota
	KindInt
	KindPtr
	KindFn
)

// Value is a runtime value: undefined, an integer, a pointer to a Loc, or
// a function (by index). The zero Value is undefined, matching
// uninitialized storage.
//
// A Value is 24 bytes: two tag bytes and two 64-bit words, read through
// Loc and FnIndex for pointers and functions. The constructors zero every
// word a kind does not use, so == is value equality.
type Value struct {
	Kind  Kind
	Space Space // KindPtr: the pointee's storage space
	// N is the integer (KindInt), the cell offset (KindPtr) or the
	// function index (KindFn).
	N int64
	// Base is the global index or allocation ID of the pointee (KindPtr).
	Base int64
}

// IntVal makes an integer value.
func IntVal(n int64) Value { return Value{Kind: KindInt, N: n} }

// PtrVal makes a pointer value.
func PtrVal(l Loc) Value {
	return Value{Kind: KindPtr, Space: l.Space, N: int64(l.Off), Base: int64(l.Base)}
}

// FnVal makes a function value.
func FnVal(index int) Value { return Value{Kind: KindFn, N: int64(index)} }

// Loc returns the location a pointer value points to.
func (v Value) Loc() Loc { return Loc{Space: v.Space, Base: int(v.Base), Off: int(v.N)} }

// FnIndex returns the function index of a function value.
func (v Value) FnIndex() int { return int(v.N) }

// Undef is the undefined value.
var Undef = Value{}

// Truthy reports the boolean interpretation of v: nonzero integers are
// true; pointers and functions are true; undefined is an error.
func (v Value) Truthy() (bool, error) {
	switch v.Kind {
	case KindInt:
		return v.N != 0, nil
	case KindPtr, KindFn:
		return true, nil
	default:
		return false, fmt.Errorf("branch on undefined value")
	}
}

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.N)
	case KindPtr:
		return "&" + v.Loc().String()
	case KindFn:
		return fmt.Sprintf("fn%d", v.N)
	default:
		return "undef"
	}
}

// Equal reports deep value equality.
func (v Value) Equal(w Value) bool { return v == w }

// AccessKind distinguishes reads from writes in events and access sets.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// A RuntimeError aborts a configuration: the configuration enters a
// terminal error state that exploration reports (assertion failures,
// undefined-value uses, bad dereferences, division by zero).
type RuntimeError struct {
	Stmt lang.NodeID
	Pos  lang.Pos
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}
