package sem

import (
	"strings"
	"testing"

	"psa/internal/lang"
)

func TestConfigAccessors(t *testing.T) {
	c := initial(t, `
var g;
func main() {
  cobegin { g = 1; } || { g = 2; } coend
}
`)
	if c.Terminal() {
		t.Error("initial configuration is not terminal")
	}
	if c.ProcByPath("0") == nil {
		t.Error("root process not found by path")
	}
	if c.ProcByPath("nope") != nil {
		t.Error("bogus path found")
	}
	if !strings.Contains(c.String(), "0:running") {
		t.Errorf("config renders as %q", c.String())
	}
	// Run to completion; terminal config renders and reports.
	cur := c
	for !cur.Terminal() {
		cur = cur.Step(cur.Enabled()[0]).Config
	}
	if !cur.Terminal() {
		t.Error("terminal not reached")
	}
	if got := cur.ResultGlobals(); len(got) != 1 {
		t.Errorf("ResultGlobals = %v", got)
	}
}

func TestConfigStringError(t *testing.T) {
	res := mustRun(t, `func main() { assert 0 == 1; }`)
	if !strings.Contains(res.Final.String(), "ERR:") {
		t.Errorf("error config renders as %q", res.Final.String())
	}
	if !res.Final.Terminal() {
		t.Error("error configs are terminal")
	}
}

func TestLocAndKindStrings(t *testing.T) {
	if (Loc{Space: SpaceGlobal, Base: 2}).String() != "g2" {
		t.Error("global loc rendering")
	}
	if (Loc{Space: SpaceHeap, Base: 3, Off: 1}).String() != "h3+1" {
		t.Error("heap loc rendering")
	}
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("access kind rendering")
	}
	if StatusRunning.String() != "running" || StatusWaitJoin.String() != "waiting" || StatusDone.String() != "done" {
		t.Error("status rendering")
	}
}

func TestValueStringsAndTruthy(t *testing.T) {
	cases := map[string]Value{
		"7":      IntVal(7),
		"-42":    IntVal(-42),
		"&g1":    PtrVal(Loc{Space: SpaceGlobal, Base: 1}),
		"&h7+-2": PtrVal(Loc{Space: SpaceHeap, Base: 7, Off: -2}),
		"fn2":    FnVal(2),
		"undef":  Undef,
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("%v renders as %q, want %q", v, v.String(), want)
		}
	}
	if b, err := IntVal(0).Truthy(); err != nil || b {
		t.Error("0 is false")
	}
	if b, err := PtrVal(Loc{}).Truthy(); err != nil || !b {
		t.Error("pointers are true")
	}
	if b, err := FnVal(1).Truthy(); err != nil || !b {
		t.Error("functions are true")
	}
	if _, err := Undef.Truthy(); err == nil {
		t.Error("undefined truthiness is an error")
	}
}

func TestRuntimeErrorRendering(t *testing.T) {
	withPos := &RuntimeError{Pos: lang.Pos{Line: 3, Col: 4}, Msg: "boom"}
	if withPos.Error() != "3:4: boom" {
		t.Errorf("got %q", withPos.Error())
	}
	bare := &RuntimeError{Msg: "boom"}
	if bare.Error() != "boom" {
		t.Errorf("got %q", bare.Error())
	}
}

func TestNextAccessStatementKinds(t *testing.T) {
	// Walk a sequential program checking access sets per statement kind.
	prog := mustProg(t, `
var a = 1; var b;
func f(x) { return x; }
func main() {
  if a > 0 { skip; }
  while b > 99 { skip; }
  assert a == 1;
  f(a);
  b = f(a);
  skip;
  free(malloc(1));
}
`)
	c := NewConfig(prog)
	gA := Loc{Space: SpaceGlobal, Base: 0}
	// if: reads a.
	if acc := c.NextAccess(0); len(acc.Reads) != 1 || acc.Reads[0] != gA {
		t.Errorf("if cond access = %+v", acc)
	}
	c = c.Step(0).Config // executes if, enters then
	c = c.Step(0).Config // skip
	// while: reads b.
	if acc := c.NextAccess(0); len(acc.Reads) != 1 || acc.Reads[0].Base != 1 {
		t.Errorf("while cond access = %+v", acc)
	}
	c = c.Step(0).Config // while cond false -> skip loop
	// assert: reads a.
	if acc := c.NextAccess(0); len(acc.Reads) != 1 || acc.Reads[0] != gA {
		t.Errorf("assert access = %+v", acc)
	}
	c = c.Step(0).Config
	// call statement: reads a (argument).
	if acc := c.NextAccess(0); len(acc.Reads) != 1 || len(acc.Writes) != 0 {
		t.Errorf("call access = %+v", acc)
	}
	c = c.Step(0).Config // call
	// return: writes nothing (dest none).
	if acc := c.NextAccess(0); len(acc.Writes) != 0 {
		t.Errorf("plain return access = %+v", acc)
	}
	c = c.Step(0).Config // return x
	// b = f(a): call step reads a.
	if acc := c.NextAccess(0); len(acc.Reads) != 1 {
		t.Errorf("assign-call access = %+v", acc)
	}
	c = c.Step(0).Config // call
	// return into b: write of b.
	if acc := c.NextAccess(0); len(acc.Writes) != 1 || acc.Writes[0].Base != 1 {
		t.Errorf("return-to-global access = %+v", acc)
	}
}

func TestNextAccessFree(t *testing.T) {
	prog := mustProg(t, `
func main() {
  var p = malloc(2);
  free(p);
}
`)
	c := NewConfig(prog).Step(0).Config // malloc
	acc := c.NextAccess(0)
	if len(acc.Writes) != 2 {
		t.Errorf("free should write both cells, got %+v", acc)
	}
}

func TestGranStmtAccessorsStillWork(t *testing.T) {
	c := initial(t, `
var g;
func main() { cobegin { g = g + 1; } || { g = 2; } coend }
`).SetGranularity(GranStmt)
	if c.Gran != GranStmt {
		t.Error("granularity not set")
	}
	cur := c.Step(0).Config
	for _, i := range cur.Enabled() {
		if cur.NextActionID(i) == 0 {
			t.Error("NextActionID should identify the arm statements")
		}
	}
}
