// Command perfbench is the ccsched benchmark: one command that runs a
// named workload against the library's and ccserved's public entry points,
// checks every answer, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
// Run it from the root of a ccsched checkout through run.sh, which builds
// it from the checkout's source:
//
//	bash perfbench/run.sh --workload ptas-deck --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workload runs one named traffic mix for cfg.seconds and returns what it
// measured. An error means the harness itself could not run (not that an
// operation failed): the command then exits non-zero without a result.
type workload func(ctx context.Context, cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"ptas-deck":     runDeck,
	"serve-oneshot": runServe,
	"session-churn": runChurn,
}

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

// deadline is when the measured loop stops starting new operations.
func (c runConfig) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds) * time.Second)
}

// outcome is one workload run: operation counts, every correctness
// mismatch found, the metric values by name, and a free-form detail record
// printed (before the result line) for whoever reads the log.
type outcome struct {
	attempted  int
	failed     int
	mismatches []string
	// failures counts the failed operations that brought back no full
	// answer, by kind (an *opFailure's kind).
	failures map[string]int
	metrics  map[string]float64
	detail   map[string]any
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, metrics: map[string]float64{}, detail: map[string]any{}}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// fail records an operation that delivered no correct answer. An
// *opFailure counts in failed only; any other error is a check failing on
// an answer that came back, which is also a mismatch.
func (o *outcome) fail(err error, format string, args ...any) {
	o.failed++
	var f *opFailure
	if errors.As(err, &f) {
		o.failures[f.kind]++
		return
	}
	o.mismatch("%s: %v", fmt.Sprintf(format, args...), err)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ptas-deck, serve-oneshot or session-churn")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "how long the measured loop runs")
		traced  = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
		cellArg = flag.String("cell", "", "internal: solve one ptas-deck cell in this process and print its answer")
		regen   = flag.Bool("regen-optima", false, "recompute the exact optima of the ptas-deck cells and print optima.json to stdout")
		serve   = flag.Bool(serveChildFlag, false, "internal: serve ccserved's handler on loopback until standard input closes")
		sat     = flag.Bool("saturate", false, "measure the serving path's saturation throughput on the serve-oneshot mix for --seconds and print it")
	)
	flag.Parse()
	switch {
	case *serve:
		if err := runServeChild(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server:", err)
			os.Exit(1)
		}
		return
	case *cellArg != "":
		if err := runCellChild(*cellArg, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench cell:", err)
			os.Exit(1)
		}
		return
	case *sat:
		if err := runSaturate(context.Background(), runConfig{seed: *seed, seconds: *seconds}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	case *regen:
		if err := regenOptima(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1}
	env, err := recordEnv(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	steal0, total0 := cpuTicks()
	out, err := w(context.Background(), cfg)
	steal1, total1 := cpuTicks()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := buildResult(*name, cfg.trace, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The share of CPU time the hypervisor took from this VM during the
	// run: wall-clock figures of runs with more of it read slower.
	env.StealShare = share(int(steal1-steal0), int(total1-total0))
	out.detail["env"] = env
	out.detail["workload"] = *name
	out.detail["mismatches"] = out.mismatches
	out.detail["failures"] = out.failures
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": out.detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, m := range out.mismatches {
			fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
		}
		os.Exit(1)
	}
}

// buildResult selects the metric set of the run (end-to-end or per-layer)
// and refuses a run that did not produce every metric of that set.
func buildResult(name string, traced bool, out *outcome) (*result, error) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	res := &result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, m := range set {
		v, ok := out.metrics[m.name]
		if !ok || !finite(v) {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s produced no finite value for %v", name, missing)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", name)
	}
	return res, nil
}
