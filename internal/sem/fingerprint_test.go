package sem

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"psa/internal/progen"
	"psa/internal/workloads"
)

// fpWalk collects a few BFS levels' worth of distinct configurations from
// the given program — enough variety (heap growth, cobegin interleavings,
// pending operands) to exercise every encoder case.
func fpWalk(t *testing.T, src string, levels int) []*Config {
	t.Helper()
	c := initial(t, src)
	var out []*Config
	seen := map[Key]bool{}
	frontier := []*Config{c}
	for d := 0; d < levels && len(frontier) > 0; d++ {
		var next []*Config
		for _, cur := range frontier {
			k := cur.Encode()
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, cur)
			for _, i := range cur.Enabled() {
				next = append(next, cur.Step(i).Config)
			}
		}
		frontier = next
	}
	return out
}

const fpTestProg = `
var g; var shared;
func main() {
  var p = malloc(2);
  *p = 1;
  cobegin {
    g = *p;
    shared = malloc(1);
  } || {
    *(p + 1) = 2;
    g = g + 10;
  } coend
}
`

// fpCorpus returns the initial configurations of the partition corpus:
// fpTestProg, Philosophers(3), every testdata program and twenty
// default-profile progen programs.
func fpCorpus(t *testing.T) map[string]*Config {
	t.Helper()
	out := map[string]*Config{
		"fpTestProg":      initial(t, fpTestProg),
		"philosophers(3)": NewConfig(workloads.Philosophers(3)),
	}
	files, err := filepath.Glob("../../testdata/*.cb")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs (%v)", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = initial(t, string(src))
	}
	for seed := int64(1); seed <= 20; seed++ {
		prog, _, err := progen.Generate(seed, progen.DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("progen-%d", seed)] = NewConfig(prog)
	}
	return out
}

// walkSuccessors explores breadth-first from c, expanding at most limit
// distinct configurations, and calls visit on c and on every successor it
// generates, including successors that repeat an earlier configuration.
func walkSuccessors(c *Config, limit int, visit func(*Config)) {
	visit(c)
	seen := map[Key]bool{}
	queue := []*Config{c}
	for len(queue) > 0 && len(seen) < limit {
		cur := queue[0]
		queue = queue[1:]
		k := cur.Encode()
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, i := range cur.Enabled() {
			succ := cur.Step(i).Config
			visit(succ)
			queue = append(queue, succ)
		}
	}
}

// Fingerprints partition configurations exactly as keys do: two
// configurations have equal fingerprints iff they have equal keys, with
// and without heap canonicalization. The fingerprint hashes a word stream
// of the walk Encode renders as text, so this is the contract that makes
// fingerprint-mode exploration agree with exact keys.
func TestFingerprintPartitionsLikeKey(t *testing.T) {
	modes := []struct {
		name string
		key  func(*Config) Key
		fp   func(*Config) Fingerprint
	}{
		{"canon", (*Config).Encode, (*Config).Fingerprint},
		{"nocanon", (*Config).EncodeNoCanon, (*Config).FingerprintNoCanon},
	}
	corpus := fpCorpus(t)
	for _, m := range modes {
		keys, repeats := 0, 0
		for name, c0 := range corpus {
			byKey := map[Key]Fingerprint{}
			byFP := map[Fingerprint]Key{}
			visits := 0
			walkSuccessors(c0, 400, func(c *Config) {
				visits++
				k, fp := m.key(c), m.fp(c)
				if fp.Zero() {
					t.Fatalf("%s/%s: zero fingerprint for %q", name, m.name, k)
				}
				if prev, ok := byKey[k]; ok && prev != fp {
					t.Fatalf("%s/%s: key %q has fingerprints %s and %s", name, m.name, k, prev, fp)
				}
				if prev, ok := byFP[fp]; ok && prev != k {
					t.Fatalf("%s/%s: fingerprint %s shared by keys %q and %q", name, m.name, fp, prev, k)
				}
				byKey[k], byFP[fp] = fp, k
			})
			keys += len(byKey)
			repeats += visits - len(byKey)
		}
		// Both directions of the iff need material: many distinct keys,
		// and many configurations reached again along another path.
		if keys < 5000 || repeats < 5000 {
			t.Errorf("%s: %d keys and %d repeated visits are too few to exercise the partition", m.name, keys, repeats)
		}
		t.Logf("%s: %d keys, %d repeated visits", m.name, keys, repeats)
	}
}

// Fingerprinting is a pure function of the configuration, and distinct
// canonical keys map to distinct fingerprints across the walked corpus
// (a collision here, at these sizes, means a broken lane — not bad luck).
func TestFingerprintStableAndInjectiveOnCorpus(t *testing.T) {
	cfgs := fpWalk(t, fpTestProg, 14)
	if len(cfgs) < 20 {
		t.Fatalf("walk produced only %d configurations", len(cfgs))
	}
	byFP := map[Fingerprint]Key{}
	for _, cfg := range cfgs {
		fp := cfg.Fingerprint()
		if fp != cfg.Fingerprint() {
			t.Fatal("Fingerprint not stable")
		}
		if fp.Zero() {
			t.Fatal("fingerprint of a real configuration is zero")
		}
		k := cfg.Encode()
		if prev, ok := byFP[fp]; ok && prev != k {
			t.Fatalf("fingerprint collision: %s for keys %q and %q", fp, prev, k)
		}
		byFP[fp] = k
	}
}

// The encoder pool must report traffic, and a warm steady state must stop
// allocating: Fingerprint never materializes the key, and Encode's only
// allocation is the returned key itself.
func TestEncoderPoolReuse(t *testing.T) {
	cfgs := fpWalk(t, fpTestProg, 5)
	g0, _ := EncoderPoolStats()
	for _, cfg := range cfgs {
		cfg.Fingerprint()
	}
	g1, m1 := EncoderPoolStats()
	if g1-g0 < int64(len(cfgs)) {
		t.Fatalf("pool gets advanced by %d for %d fingerprints", g1-g0, len(cfgs))
	}
	if m1 > g1 {
		t.Fatalf("pool misses %d exceed gets %d", m1, g1)
	}
	if raceEnabled {
		return // race instrumentation inflates allocation counts
	}
	cfg := cfgs[len(cfgs)-1]
	if n := testing.AllocsPerRun(100, func() { cfg.Fingerprint() }); n > 0 {
		t.Errorf("Fingerprint allocates %.1f objects/op on a warm pool", n)
	}
	if n := testing.AllocsPerRun(100, func() { cfg.Encode() }); n > 1 {
		t.Errorf("Encode allocates %.1f objects/op on a warm pool (want ≤1: the key copy)", n)
	}
}
