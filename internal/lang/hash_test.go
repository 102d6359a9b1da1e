package lang

import (
	"strings"
	"testing"
)

const hashBase = `
var g = 0;

func leaf(x) {
  g = x + 1;
}

func caller() {
  leaf(2);
}

func other() {
  g = 7;
}

func main() {
  caller();
  other();
}
`

func hashOf(t *testing.T, src string) *ProgramHashes {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return HashProgram(p)
}

// TestProgramHashGolden pins the hash values: clients pass program_hash
// back and compare it across releases, so the rendering must not change.
func TestProgramHashGolden(t *testing.T) {
	h := hashOf(t, hashBase)
	if got, want := h.ProgramHash(false), "c4b4a73f7fc3987ef5d4849ab01ad8bf"; got != want {
		t.Errorf("alpha program hash = %s, want %s", got, want)
	}
	if got, want := h.ProgramHash(true), "a85c3447ac0bab25771d3a5203d60bb6"; got != want {
		t.Errorf("named program hash = %s, want %s", got, want)
	}
}

func TestHashRenameLocalAlphaInvariant(t *testing.T) {
	ha := hashOf(t, `func main() { var a = 1; var b = a + 2; b = b - a; }`)
	hb := hashOf(t, `func main() { var x = 1; var y = x + 2; y = y - x; }`)
	if ha.ProgramHash(false) != hb.ProgramHash(false) {
		t.Errorf("alpha program hash should ignore local names")
	}
	if ha.ProgramHash(true) == hb.ProgramHash(true) {
		t.Errorf("named program hash should see local names")
	}
}

func TestHashRenameParamAlphaInvariant(t *testing.T) {
	ha := hashOf(t, `func f(p) { p = p + 1; } func main() { f(1); }`)
	hb := hashOf(t, `func f(q) { q = q + 1; } func main() { f(1); }`)
	if ha.ProgramHash(false) != hb.ProgramHash(false) {
		t.Errorf("alpha program hash should ignore param names")
	}
	if ha.ProgramHash(true) == hb.ProgramHash(true) {
		t.Errorf("named program hash should see param names")
	}
}

func TestHashLabelExcluded(t *testing.T) {
	ha := hashOf(t, `var g = 0; func main() { g = 1; while g > 0 { g = g - 1; } }`)
	hb := hashOf(t, `var g = 0; func main() { L1: g = 1; L2: while g > 0 { g = g - 1; } }`)
	for _, named := range []bool{false, true} {
		if ha.ProgramHash(named) != hb.ProgramHash(named) {
			t.Errorf("named=%t: labels must not affect the program hash", named)
		}
	}
}

func TestHashPositionIndependence(t *testing.T) {
	// The same program on different lines and columns hashes equal in
	// both modes; a one-token body edit moves both.
	flat := strings.Join(strings.Fields(hashBase), " ")
	moved := "\n\n\n" + strings.ReplaceAll(hashBase, "\n", "\n\n  ")
	edited := strings.Replace(hashBase, "g = 7", "g = 8", 1)
	h0, hf, hm, he := hashOf(t, hashBase), hashOf(t, flat), hashOf(t, moved), hashOf(t, edited)
	for _, named := range []bool{false, true} {
		if hf.ProgramHash(named) != h0.ProgramHash(named) || hm.ProgramHash(named) != h0.ProgramHash(named) {
			t.Errorf("named=%t: reformatting moved the program hash", named)
		}
		if he.ProgramHash(named) == h0.ProgramHash(named) {
			t.Errorf("named=%t: a body edit left the program hash unchanged", named)
		}
	}
}

func TestHashGlobalsAndFuncList(t *testing.T) {
	base := `var g = 0; var h = 0; func extra() { skip; } func main() { g = 1; }`
	for name, src := range map[string]string{
		"global initializer": `var g = 1; var h = 0; func extra() { skip; } func main() { g = 1; }`,
		"global order":       `var h = 0; var g = 0; func extra() { skip; } func main() { g = 1; }`,
		"procedure add":      `var g = 0; var h = 0; func extra() { skip; } func more() { skip; } func main() { g = 1; }`,
		"procedure delete":   `var g = 0; var h = 0; func main() { g = 1; }`,
		"arity":              `var g = 0; var h = 0; func extra(x) { skip; } func main() { g = 1; }`,
		"procedure order":    `var g = 0; var h = 0; func main() { g = 1; } func extra() { skip; }`,
	} {
		for _, named := range []bool{false, true} {
			if hashOf(t, src).ProgramHash(named) == hashOf(t, base).ProgramHash(named) {
				t.Errorf("%s (named=%t) must move the program hash", name, named)
			}
		}
	}
}
