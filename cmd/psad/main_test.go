package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildPsad compiles the daemon into dir and returns the binary path.
func buildPsad(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "psad")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psad")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/psad: %v\n%s", err, out)
	}
	return bin
}

const smokeProg = `
var g; var flag; var data; var out;
func main() {
  cobegin {
    s1: g = 1;
    data = 42;
    flag = 1;
  } || {
    s2: g = 2;
    loop: while flag == 0 { skip; }
    s3: out = data;
  } coend
}
`

// smokeAbsProg is smokeProg with a local, so it has α-renamed copies.
const smokeAbsProg = `
var g; var flag; var data; var out;
func main() {
  cobegin {
    s1: g = 1;
    data = 42;
    flag = 1;
  } || {
    s2: g = 2;
    loop: while flag == 0 { skip; }
    var d = data;
    s3: out = d;
  } coend
}
`

// End-to-end smoke: boot the daemon on an ephemeral port, drive one
// explore and one abstract run plus the health/metrics endpoints over
// real HTTP, then SIGTERM it and require a clean drained exit 0.
func TestPsadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildPsad(t, dir)

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "4", "-drain", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op after the clean Wait below

	// The first stderr line announces the real bound address.
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("daemon exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected startup line: %q", line)
	}
	addr := strings.Fields(line[i+len(marker):])[0]
	base := "http://" + addr
	// Drain the rest of stderr so the daemon never blocks on the pipe.
	tail := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		tail <- b.String()
	}()

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	post := func(req map[string]any) (map[string]any, int) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /analyze: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		return out, resp.StatusCode
	}

	out, code := post(map[string]any{
		"program":  smokeProg,
		"analysis": "explore",
		"options":  map[string]any{"reduction": "stubborn", "coarsen": true, "outcomes": true},
	})
	if code != http.StatusOK {
		t.Fatalf("explore run: status %d, body %v", code, out)
	}
	if s, _ := out["summary"].(string); !strings.Contains(s, "states=") {
		t.Errorf("explore summary: %v", out)
	}
	if out["states"].(float64) <= 0 || out["terminals"].(float64) <= 0 {
		t.Errorf("explore counts: %v", out)
	}

	out, code = post(map[string]any{
		"program":  smokeAbsProg,
		"analysis": "abstract",
		"options":  map[string]any{"domain": "interval"},
	})
	if code != http.StatusOK {
		t.Fatalf("abstract run: status %d, body %v", code, out)
	}
	if s, _ := out["summary"].(string); !strings.Contains(s, "abstract states=") {
		t.Errorf("abstract summary: %v", out)
	}

	// An α-renamed copy (different labels and layout too) has the same
	// canonical hash, so the result cache serves it.
	renamed := strings.NewReplacer("var d = data;", "var e = data;", "out = d;", "out = e;",
		"s1:", "a:", "loop:", "", "\n", " ").Replace(smokeAbsProg)
	if renamed == smokeAbsProg {
		t.Fatal("rename did not apply")
	}
	again, code := post(map[string]any{
		"program":  renamed,
		"analysis": "abstract",
		"options":  map[string]any{"domain": "interval"},
	})
	if code != http.StatusOK || again["cached"] != true {
		t.Fatalf("α-renamed abstract resubmission: status %d, want cached, body %v", code, again)
	}
	if again["summary"] != out["summary"] || again["program_hash"] != out["program_hash"] {
		t.Errorf("α-renamed resubmission diverged: %v vs %v", again, out)
	}

	// A parse error is a 400, not a daemon failure.
	if _, code := post(map[string]any{"program": "var ;", "analysis": "explore"}); code != http.StatusBadRequest {
		t.Errorf("parse error returned status %d, want 400", code)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v %v", resp, err)
	}
	var met struct {
		Service struct {
			Requests int64 `json:"requests"`
			Runs     int64 `json:"runs"`
		} `json:"service"`
		Counters map[string]int64 `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&met)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if met.Service.Requests < 3 || met.Service.Runs < 2 {
		t.Errorf("metrics undercount the session: %+v", met.Service)
	}
	if met.Counters["states_unique"] == 0 {
		t.Errorf("engine counters not aggregated: %v", met.Counters)
	}

	// SIGTERM → graceful drain → exit 0. Read stderr to EOF BEFORE
	// calling Wait: Wait closes the pipe and would race the drain
	// goroutine out of the final shutdown lines.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var text string
	select {
	case text = <-tail:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not close stderr within 10s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 on SIGTERM: %v\nstderr:\n%s", err, text)
	}
	if !strings.Contains(text, "drained") {
		t.Errorf("shutdown log missing drain confirmation:\n%s", text)
	}
}

// A bad flag or leftover argument exits 2 before the listener starts.
func TestPsadUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildPsad(t, t.TempDir())
	for _, args := range [][]string{
		{"stray-arg"},
		{"-sched", "nope"},
	} {
		err := exec.Command(bin, args...).Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("psad %v: expected exit 2, got %v", args, err)
		}
	}
}
