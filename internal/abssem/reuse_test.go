package abssem

import (
	"testing"

	"psa/internal/lang"
)

// A workload exercising calls, recursion past the limit, cobegin arms,
// and heap allocation, so its result carries invariants, footprints,
// and heap summaries for ReuseResult to share.
const reuseSrc = `
var g = 0;
var h = 0;

func bump(x) {
  g = g + x;
}

func rec(n) {
  if n > 0 {
    rec(n - 1);
  }
  h = h + 1;
}

func main() {
  var p = malloc(1);
  *p = 5;
  cobegin {
    bump(1);
    rec(4);
  } || {
    bump(2);
  } coend
  g = g + *p;
}
`

func TestReuseResult(t *testing.T) {
	prog := lang.MustParse(reuseSrc)
	res := Analyze(prog, Options{CollectFootprints: true})
	re := ReuseResult(res, lang.MustParse(reuseSrc))
	if re.Digest() != res.Digest() {
		t.Fatalf("reused result digests differ")
	}
	if got, want := re.String(), res.String(); got != want {
		t.Fatalf("reused result renders differently: %s vs %s", got, want)
	}
}
