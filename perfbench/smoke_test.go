package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccsched"
	"ccsched/internal/server"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram pins BENCHMARK.json to the metric sets and the
// workloads this program knows.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
}

// TestFailureIsNotMismatch pins the split between a failed operation
// (no full answer: counted in failed only) and a mismatch (a check failing
// on an answer that came back: the run is incorrect).
func TestFailureIsNotMismatch(t *testing.T) {
	degraded, err := json.Marshal(server.SolveResponse{Status: server.StatusDone, Result: &ccsched.Result{Degraded: true}})
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	for _, c := range []struct {
		status int
		raw    []byte
		err    error
	}{
		{0, nil, errors.New("connection reset")},
		{http.StatusTooManyRequests, []byte("queue full"), nil},
		{http.StatusOK, degraded, nil},
	} {
		_, err := decodeSolve(c.status, c.raw, c.err)
		if err == nil {
			t.Fatalf("decodeSolve(%d, %s) accepted the answer", c.status, c.raw)
		}
		o.fail(err, "op")
	}
	if o.failed != 3 || len(o.mismatches) != 0 {
		t.Fatalf("failures counted %d failed and %d mismatches, want 3 and 0", o.failed, len(o.mismatches))
	}
	if o.failures["transport"] != 1 || o.failures["http 429"] != 1 || o.failures["degraded"] != 1 {
		t.Errorf("failure kinds %v", o.failures)
	}
	o.fail(errors.New("makespan below the certified lower bound"), "op")
	if o.failed != 4 || len(o.mismatches) != 1 {
		t.Errorf("a failed check counted %d failed and %d mismatches, want 4 and 1", o.failed, len(o.mismatches))
	}
}

// benchBinary builds the benchmark once per test run; the workloads need
// their own binary, since they run the server and the deck cells as child
// processes of it.
func benchBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-smoke")
		if err != nil {
			binErr = err
			return
		}
		binPath = filepath.Join(dir, "perfbench")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

var (
	binOnce sync.Once
	binPath string
	binErr  error
)

// emits runs a workload briefly from the checkout's root and checks that
// its result line carries every metric BENCHMARK.json names for the pass,
// each with its unit.
func emits(t *testing.T, name string, traced bool) {
	t.Helper()
	s := readSpec(t)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(benchBinary(t), "--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace)
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d", name, res.Correct, res.Attempted)
	}
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s (trace=%v) does not emit %s", name, traced, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s (trace=%v) emits %s in %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s (trace=%v) emits %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
	}
}

func TestServeEmitsEveryMetric(t *testing.T) {
	emits(t, "serve-oneshot", false)
	emits(t, "serve-oneshot", true)
}

func TestChurnEmitsEveryMetric(t *testing.T) {
	emits(t, "session-churn", false)
}

func TestDeckEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("one deck pass takes about a minute")
	}
	emits(t, "ptas-deck", false)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binPath != "" {
		os.RemoveAll(filepath.Dir(binPath))
	}
	os.Exit(code)
}
