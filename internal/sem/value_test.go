package sem

import (
	"strings"
	"testing"
	"unsafe"

	"psa/internal/lang"
)

// Locals, globals and heap cells are slices of Values, so every cloned
// frame copies them: a Value is two tag bytes and two 64-bit words.
func TestValueIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", n)
	}
}

// Pointer offsets keep all 64 bits: p+2³² is a different pointer from p,
// and subtracting 2³² again gives back p, in keys and fingerprints alike.
func TestPointerOffsetKeepsHighBits(t *testing.T) {
	c := initial(t, `var g; func main() { g = malloc(2); }`)
	for len(c.Enabled()) > 0 {
		c = c.Step(0).Config
	}
	p := c.Globals[0]
	if p.Kind != KindPtr || p.Loc() != (Loc{Space: SpaceHeap, Base: 0}) {
		t.Fatalf("g = %s, want &h0+0", p)
	}
	const big = 4294967296
	far, err := BinopVal(lang.TokPlus, p, IntVal(big))
	if err != nil {
		t.Fatal(err)
	}
	back, err := BinopVal(lang.TokMinus, far, IntVal(big))
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("(p + 2³²) - 2³² = %s, want %s", back, p)
	}
	if got := far.Loc().Off; got != big {
		t.Fatalf("offset of p + 2³² is %d", got)
	}
	cp, cfar, cback := withGlobals(c, p), withGlobals(c, far), withGlobals(c, back)
	if !strings.Contains(string(cfar.Encode()), "ph0+4294967296,") {
		t.Errorf("key of g = p + 2³² is %q", cfar.Encode())
	}
	if cp.Encode() == cfar.Encode() || cp.Fingerprint() == cfar.Fingerprint() {
		t.Error("p and p + 2³² share a key or a fingerprint")
	}
	if cp.EncodeNoCanon() == cfar.EncodeNoCanon() || cp.FingerprintNoCanon() == cfar.FingerprintNoCanon() {
		t.Error("p and p + 2³² share a no-canon key or fingerprint")
	}
	if cp.Encode() != cback.Encode() || cp.Fingerprint() != cback.Fingerprint() {
		t.Error("(p + 2³²) - 2³² and p differ in key or fingerprint")
	}
}

// Values of different kinds with the same payload words get different
// keys and fingerprints: the kind tag is part of the hashed stream.
func TestValueKindsKeyApart(t *testing.T) {
	c := initial(t, `var g; func main() { }`)
	vals := []Value{
		Undef,
		IntVal(1),
		FnVal(1),
		PtrVal(Loc{Space: SpaceGlobal, Base: 1}),
		PtrVal(Loc{Space: SpaceHeap, Base: 1, Off: 1}),
	}
	keys := map[Key]bool{}
	fps := map[Fingerprint]bool{}
	for _, v := range vals {
		d := withGlobals(c, v)
		keys[d.Encode()] = true
		fps[d.Fingerprint()] = true
	}
	if len(keys) != len(vals) || len(fps) != len(vals) {
		t.Fatalf("%d values give %d keys and %d fingerprints", len(vals), len(keys), len(fps))
	}
}

// withGlobals returns a copy of c whose global store is vals.
func withGlobals(c *Config, vals ...Value) *Config {
	d := c.clone()
	d.Globals = vals
	return d
}

// A store through a pointer far out of bounds reports the whole offset.
func TestOutOfBoundsStoreReportsFullOffset(t *testing.T) {
	res, err := Run(lang.MustParse(`func main() { var p = malloc(2); *(p + 4294967296) = 1; }`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "heap store out of bounds: h0+4294967296 (size 2)"; !strings.Contains(res.Final.Err, want) {
		t.Fatalf("error %q does not contain %q", res.Final.Err, want)
	}
}
