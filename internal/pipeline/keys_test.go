package pipeline

import (
	"testing"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
)

// TestKeyGolden pins the exact cache-key strings Key and AbstractKey
// render. These keys are persisted outside the process (the service's
// completed-result cache keys requests with them; experiment manifests
// record them), so their format is a compatibility contract: see the
// "Key stability contract" section of the package doc. If this test
// fails, a change broke every persisted cache key — extend the keys by
// APPENDING a field whose zero value reproduces the old semantics
// instead, and only then update the goldens here.
func TestKeyGolden(t *testing.T) {
	keyCases := []struct {
		name string
		ro   RunOptions
		want string
	}{
		{"zero", RunOptions{}, "red=0 coarsen=false max=0 exact=false"},
		{"stubborn-coarsen",
			RunOptions{Reduction: explore.Stubborn, Coarsen: true, MaxConfigs: 4096, ExactKeys: true},
			"red=1 coarsen=true max=4096 exact=true"},
	}
	for _, tc := range keyCases {
		if got := tc.ro.Key(); got != tc.want {
			t.Errorf("Key()[%s] = %q, want %q (cache-key format is a cross-release contract)",
				tc.name, got, tc.want)
		}
	}

	absCases := []struct {
		name string
		ao   abssem.Options
		want string
	}{
		{"zero", abssem.Options{},
			"dom=const k=2 rec=3 clan=false max=262144 widen=4 foot=false"},
		{"tuned",
			abssem.Options{Domain: absdom.ConstDomain{}, KBirth: 1, RecLimit: 2,
				ClanFold: true, MaxStates: 512, WidenAfter: 2, CollectFootprints: true},
			"dom=const k=1 rec=2 clan=true max=512 widen=2 foot=true"},
	}
	for _, tc := range absCases {
		if got := AbstractKey(tc.ao); got != tc.want {
			t.Errorf("AbstractKey[%s] = %q, want %q (cache-key format is a cross-release contract)",
				tc.name, got, tc.want)
		}
	}

	// Execution-only fields must never leak into either key.
	exec := RunOptions{Workers: 7}
	if exec.Key() != (RunOptions{}).Key() {
		t.Error("Workers leaked into Key()")
	}
	if AbstractKey(abssem.Options{Workers: 7}) != AbstractKey(abssem.Options{}) {
		t.Error("Workers leaked into AbstractKey()")
	}
}
