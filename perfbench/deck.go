package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// The ptas-deck workload: every generator family × every variant at one
// fixed small size, each cell one cold Solve at TierPTAS ε=½ (deckOptions),
// run in its own child process under a memory cap and a CPU-time budget.
// The deck instances are fixed (generator seed deckGen.Seed) so that their
// exact optima can be committed in optima.json; --seed only shuffles the
// order the cells run in.
var deckGen = ccsched.GeneratorConfig{N: 24, Classes: 6, Machines: 3, Slots: 2, PMax: 1000, Seed: 1}

const (
	deckEpsilon = 0.5
	// cellCPUBudget is the CPU time (user and system) a cell's child may
	// use. It is counted in CPU time because that excludes what the host
	// steals from the VM: on a shared 2-CPU host a cell's wall time varied
	// up to 2x between runs. CPU time still drifted up to 1.7x with the
	// host's load, so the budget sits midway (geometrically) between the
	// slowest answered cell at its slowest (3.5 s) and the next cell,
	// fewlarge non-preemptive, at its fastest (5.3 s).
	cellCPUBudget = 4300 * time.Millisecond
	// cellWall is the wall-clock backstop, for a host so starved that the
	// CPU budget alone would let a run overrun its time limit.
	cellWall = 3 * cellCPUBudget
	// cellMemCapMB is the resident-set cap of a cell's child process.
	cellMemCapMB = 1024
	// deckSLO is the solve-CPU limit slo_share counts cells against, midway
	// between the answered cells around 1 s (at most 1.25 s) and those
	// around 3 s (at least 2 s).
	deckSLO = 1600 * time.Millisecond
	// deckSetups is how many times a run measures the deck's set-up.
	deckSetups = 15
)

var deckVariants = []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive}

type cell struct {
	family  string
	variant ccsched.Variant
}

func (c cell) name() string { return c.family + "/" + c.variant.String() }

func deckCells() []cell {
	var out []cell
	for _, f := range ccsched.GeneratorFamilies() {
		for _, v := range deckVariants {
			out = append(out, cell{f, v})
		}
	}
	return out
}

func parseCell(s string) (cell, error) {
	fam, vs, ok := strings.Cut(s, "/")
	if !ok {
		return cell{}, fmt.Errorf("cell %q: want family/variant", s)
	}
	v, err := ccsched.ParseVariant(vs)
	if err != nil {
		return cell{}, err
	}
	return cell{fam, v}, nil
}

func deckInstance(family string) (*ccsched.Instance, error) {
	return ccsched.Generate(family, deckGen)
}

func instanceDigest(in *ccsched.Instance) string {
	h := sha256.Sum256([]byte(ccsched.FormatInstance(in)))
	return hex.EncodeToString(h[:8])
}

//go:embed optima.json
var optimaJSON []byte

// optima is the committed reference data: each deck family's instance
// digest and the exact optimum of its splittable and non-preemptive cells.
type optima struct {
	Generator  ccsched.GeneratorConfig `json:"generator"`
	Regenerate string                  `json:"regenerate"`
	Families   []familyOptima          `json:"families"`
}

type familyOptima struct {
	Family        string `json:"family"`
	Digest        string `json:"digest"`
	Splittable    string `json:"splittable"`     // empty: beyond the exact solver
	NonPreemptive string `json:"non_preemptive"` // empty: beyond the exact solver
}

// deckRef is the prepared deck: instances by family and the reference each
// cell's makespan is compared with — the exact optimum where committed,
// the certified lower bound (preemptive) elsewhere.
type deckRef struct {
	inst map[string]*ccsched.Instance
	ref  map[string]*big.Rat
}

// prepareDeck regenerates the deck and checks it against optima.json: a
// generator change that alters an instance makes the committed optima
// meaningless, so it stops the run.
func prepareDeck() (*deckRef, error) {
	var o optima
	if err := json.Unmarshal(optimaJSON, &o); err != nil {
		return nil, fmt.Errorf("optima.json: %w", err)
	}
	if o.Generator != deckGen {
		return nil, fmt.Errorf("optima.json was computed for generator %+v, the deck uses %+v", o.Generator, deckGen)
	}
	d := &deckRef{inst: map[string]*ccsched.Instance{}, ref: map[string]*big.Rat{}}
	byFam := map[string]familyOptima{}
	for _, f := range o.Families {
		byFam[f.Family] = f
	}
	for _, fam := range ccsched.GeneratorFamilies() {
		in, err := deckInstance(fam)
		if err != nil {
			return nil, err
		}
		f, ok := byFam[fam]
		if !ok {
			return nil, fmt.Errorf("optima.json has no entry for family %s", fam)
		}
		if got := instanceDigest(in); got != f.Digest {
			return nil, fmt.Errorf("deck instance %s has digest %s, optima.json expects %s (regenerate with %s)", fam, got, f.Digest, o.Regenerate)
		}
		d.inst[fam] = in
		for _, v := range deckVariants {
			c := cell{fam, v}
			opt := map[ccsched.Variant]string{ccsched.Splittable: f.Splittable, ccsched.NonPreemptive: f.NonPreemptive}[v]
			ref, err := ccsched.LowerBound(in, v)
			if err != nil {
				return nil, err
			}
			if opt != "" {
				if ref, ok = new(big.Rat).SetString(opt); !ok {
					return nil, fmt.Errorf("optima.json: bad optimum %q for %s", opt, c.name())
				}
			}
			d.ref[c.name()] = ref
		}
	}
	return d, nil
}

// regenOptima recomputes optima.json with the exact solvers. It takes
// minutes (the non-preemptive fewlarge cell alone runs for about a
// minute), which is why the optima are committed instead of recomputed.
func regenOptima(w io.Writer) error {
	o := optima{Generator: deckGen, Regenerate: "bash perfbench/run.sh --regen-optima > perfbench/optima.json"}
	for _, fam := range ccsched.GeneratorFamilies() {
		in, err := deckInstance(fam)
		if err != nil {
			return err
		}
		start := time.Now()
		f := familyOptima{Family: fam, Digest: instanceDigest(in)}
		// Beyond the exact solvers' reach (ErrTooLarge) the entry stays
		// empty and the cell is compared with its certified lower bound.
		split, err := ccsched.ExactSplittable(in)
		switch {
		case err == nil:
			f.Splittable = split.RatString()
		case !errors.Is(err, ccsched.ErrTooLarge):
			return fmt.Errorf("%s splittable: %w", fam, err)
		}
		_, np, err := ccsched.ExactNonPreemptive(in)
		switch {
		case err == nil:
			f.NonPreemptive = strconv.FormatInt(np, 10)
		case !errors.Is(err, ccsched.ErrTooLarge):
			return fmt.Errorf("%s non-preemptive: %w", fam, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s optima in %v\n", fam, time.Since(start).Round(time.Millisecond))
		o.Families = append(o.Families, f)
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(o)
}

// deckOptions are a cell's Solve options: library defaults at TierPTAS
// ε=½ with a fresh cache, except Parallelism 1. The speculative guess
// search's CPU time depends on which probes it cuts off, so a cell's cost
// is reproducible only serially; its answer is bit-identical at any
// Parallelism.
func deckOptions(v ccsched.Variant) ccsched.Options {
	return ccsched.Options{Variant: v, Tier: ccsched.TierPTAS, Epsilon: deckEpsilon, Cache: ccsched.NewFeasibilityCache(), Parallelism: 1}
}

// cellAnswer is what a cell child prints: the digest of the instance it
// solved, the Solve wall time, the full Result (schedule included) and, in
// the traced pass, its per-layer samples.
type cellAnswer struct {
	Digest     string          `json:"digest"`
	SolveMs    float64         `json:"solve_ms"`
	SolveCPUMs float64         `json:"solve_cpu_ms"`
	AllocMB    float64         `json:"alloc_mb"`
	Result     json.RawMessage `json:"result"`
	Layers     *layerSample    `json:"layers,omitempty"`
}

// pingCell is the child argument that only prepares the deck and exits:
// the set-up a cell pays before its Solve.
const pingCell = "ping"

func runCellChild(arg string, traced bool) error {
	d, err := prepareDeck()
	if err != nil {
		return err
	}
	switch arg {
	case pingCell:
		_, err := fmt.Println(`{"ping":true}`)
		return err
	case layersCell:
		return runLayersChild(context.Background(), d)
	}
	c, err := parseCell(arg)
	if err != nil {
		return err
	}
	in, ok := d.inst[c.family]
	if !ok {
		return fmt.Errorf("unknown family %q", c.family)
	}
	// The traced pass solves with the in-program trace on: it is the only
	// view into a probe's internals (bb_nodes, template_build, ...).
	opts := deckOptions(c.variant)
	opts.Trace = traced
	start, cpu0, alloc0 := time.Now(), processCPU(), allocatedBytes()
	res, err := ccsched.Solve(context.Background(), in, opts)
	solve, cpu, alloc := time.Since(start), processCPU()-cpu0, allocatedBytes()-alloc0
	if err != nil {
		return err
	}
	ans := cellAnswer{Digest: instanceDigest(in), SolveMs: ms(solve), SolveCPUMs: ms(cpu), AllocMB: float64(alloc) / (1 << 20)}
	if traced {
		ans.Layers = &layerSample{}
		ans.Layers.recordPTAS(res, solve)
		res.Trace = nil
		if err := ans.Layers.probeApprox(in, c.variant); err != nil {
			return err
		}
	}
	if ans.Result, err = json.Marshal(res); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(ans)
}

// layersCell is the child argument that runs the deck's layer fixtures.
const layersCell = "layers"

// layersDeadline bounds the layer-fixture child.
const layersDeadline = 120 * time.Second

// overheadCells are the deck cells the tracing overhead is measured on:
// those that answer within 0.2 s of CPU, so that repeated pairs of solves
// stay cheap.
var overheadCells = []cell{
	{family: "unitclasses", variant: ccsched.Splittable},
	{family: "unitclasses", variant: ccsched.NonPreemptive},
	{family: "zipf", variant: ccsched.NonPreemptive},
}

// layersAnswer is what the layer-fixture child prints.
type layersAnswer struct {
	Layers *layerSample       `json:"layers"`
	Server map[string]float64 `json:"server"`
}

// runLayersChild times the lp, ilp and nfold layers on every deck family's
// splittable configuration N-fold, the tracing overhead on the cheapest
// cells, a session and an anytime ladder on deck instances, and the server
// layer on the deck's instances submitted at the constant-factor tier
// (the deck itself never goes through the server).
func runLayersChild(ctx context.Context, d *deckRef) error {
	ans := layersAnswer{Layers: &layerSample{}, Server: map[string]float64{}}
	ls := ans.Layers
	for _, fam := range ccsched.GeneratorFamilies() {
		if err := ls.probeSolver(ctx, d.inst[fam], deckEpsilon); err != nil {
			return fmt.Errorf("%s: %w", fam, err)
		}
	}
	for _, c := range overheadCells {
		opts := ccsched.Options{Variant: c.variant, Tier: ccsched.TierPTAS, Epsilon: deckEpsilon}
		if err := ls.probePTAS(ctx, d.inst[c.family], opts); err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
	}
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: deckEpsilon}
	if err := ls.probeSession(ctx, d.inst["unitclasses"], opts, 5, 1); err != nil {
		return err
	}
	if err := ls.probeLadder(ctx, d.inst[anytimeFamily], opts); err != nil {
		return err
	}
	v, err := startServer(1)
	if err != nil {
		return err
	}
	defer v.close()
	before, err := v.metrics(ctx)
	if err != nil {
		return err
	}
	for _, c := range deckCells() {
		body, err := json.Marshal(server.SolveRequest{Instance: d.inst[c.family], Options: ccsched.Options{Variant: c.variant, Tier: ccsched.TierApprox}})
		if err != nil {
			return err
		}
		for rep := 0; rep < 2; rep++ {
			var resp server.SolveResponse
			if status, raw, err := v.do(ctx, "POST", "/v1/solve", body, &resp); err != nil || status != 200 {
				return fmt.Errorf("serving %s: status %d %v %s", c.name(), status, err, raw)
			}
		}
	}
	after, err := v.metrics(ctx)
	if err != nil {
		return err
	}
	serverLayers(before, after, func(m server.MetricsSnapshot) server.LatencySnapshot { return m.SolveLatency }, ans.Server)
	return json.NewEncoder(os.Stdout).Encode(ans)
}

// deckLayers adds the traced cells' samples to the layer-fixture child's
// and derives the per-layer metrics.
func deckLayers(d *deckRef, runs []cellRun, o *outcome) error {
	var ls layerSample
	for _, r := range runs {
		if r.answer != nil {
			ls.add(r.answer.Layers)
		}
	}
	out, _, status, err := runChild(layersDeadline, layersDeadline, "--cell", layersCell, "--trace", "1")
	if status != "ok" || err != nil {
		return fmt.Errorf("layer fixtures: %s %v", status, err)
	}
	var ans layersAnswer
	if err := json.Unmarshal(out, &ans); err != nil {
		return fmt.Errorf("decoding the layer fixtures: %w", err)
	}
	ls.add(ans.Layers)
	ls.metrics(o.metrics)
	for k, v := range ans.Server {
		o.metrics[k] = v
	}
	return nil
}

// cellRun is the parent's record of one cell.
type cellRun struct {
	Cell       string  `json:"cell"`
	Status     string  `json:"status"` // ok, cpu-budget, wall, memcap, error, mismatch
	WallMs     float64 `json:"wall_ms"`
	SolveMs    float64 `json:"solve_ms,omitempty"`
	SolveCPUMs float64 `json:"solve_cpu_ms,omitempty"`
	Engine     string  `json:"engine,omitempty"`
	Ratio      float64 `json:"ratio,omitempty"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	AllocMB    float64 `json:"alloc_mb,omitempty"`
	Error      string  `json:"error,omitempty"`

	answer *cellAnswer
}

// runChild runs this binary with args under the cell caps (cpu and wall
// bound its CPU and wall time, cellMemCapMB its resident set) and returns
// its standard output, its peak RSS, and how it ended.
func runChild(cpu, wall time.Duration, args ...string) (stdout []byte, peakMB float64, status string, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, "error", err
	}
	cmd := exec.Command(self, args...)
	cmd.SysProcAttr = diesWithParent()
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &capped{buf: &errOut, max: 4096}
	if err := cmd.Start(); err != nil {
		return nil, 0, "error", err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	deadline := time.NewTimer(wall)
	defer deadline.Stop()
	poll := time.NewTicker(20 * time.Millisecond)
	defer poll.Stop()
	status = "ok"
	var waitErr error
loop:
	for {
		select {
		case waitErr = <-done:
			break loop
		case <-deadline.C:
			status = "wall"
		case <-poll.C:
			if rssMB(cmd.Process.Pid) > cellMemCapMB {
				status = "memcap"
			} else if childCPU(cmd.Process.Pid) > cpu {
				status = "cpu-budget"
			}
		}
		if status != "ok" {
			_ = cmd.Process.Kill() // an exit racing the kill is reported by Wait
			waitErr = <-done
			break loop
		}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = float64(ru.Maxrss) / 1024
	}
	if status == "ok" && waitErr != nil {
		status = "error"
		if strings.Contains(errOut.String(), "out of memory") {
			status = "memcap"
		}
		return out.Bytes(), peakMB, status, fmt.Errorf("%v: %s", waitErr, strings.TrimSpace(firstLine(errOut.String())))
	}
	return out.Bytes(), peakMB, status, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// diesWithParent makes a child process get SIGKILL when the benchmark
// dies, so that a benchmark killed mid-run leaves no cell or server
// behind.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// processCPU is the CPU time (user and system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// childCPU reads a live process's CPU time (user and system) from /proc.
func childCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

// rssMB reads a live process's resident set size from /proc.
func rssMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// capped keeps the first max bytes written to it (a child's crash dump can
// run to megabytes; only its first line is reported).
type capped struct {
	buf *bytes.Buffer
	max int
}

func (c *capped) Write(p []byte) (int, error) {
	if room := c.max - c.buf.Len(); room > 0 {
		if len(p) > room {
			c.buf.Write(p[:room])
		} else {
			c.buf.Write(p)
		}
	}
	return len(p), nil
}

// runCell solves one cell in a child and checks its answer against the
// deck reference.
func runCell(d *deckRef, c cell, traced bool) cellRun {
	trace := "0"
	if traced {
		trace = "1"
	}
	start := time.Now()
	out, peak, status, err := runChild(cellCPUBudget, cellWall, "--cell", c.name(), "--trace", trace)
	r := cellRun{Cell: c.name(), Status: status, WallMs: ms(time.Since(start)), PeakRSSMB: peak}
	if err != nil {
		r.Error = err.Error()
	}
	if status != "ok" {
		return r
	}
	var ans cellAnswer
	if err := json.Unmarshal(out, &ans); err != nil {
		r.Status, r.Error = "error", "decoding the child's answer: "+err.Error()
		return r
	}
	var res ccsched.Result
	if err := json.Unmarshal(ans.Result, &res); err != nil {
		r.Status, r.Error = "error", "decoding the child's result: "+err.Error()
		return r
	}
	r.SolveMs, r.SolveCPUMs, r.AllocMB, r.Engine, r.answer = ans.SolveMs, ans.SolveCPUMs, ans.AllocMB, string(res.Report.Engine), &ans
	in := d.inst[c.family]
	if ans.Digest != instanceDigest(in) {
		r.Status, r.Error = "mismatch", "child solved instance "+ans.Digest
		return r
	}
	if err := checkResult(in, c.variant, &res); err != nil {
		r.Status, r.Error = "mismatch", err.Error()
		return r
	}
	ref := d.ref[c.name()]
	if res.Makespan.Cmp(ref) < 0 {
		r.Status, r.Error = "mismatch", fmt.Sprintf("makespan %s below the reference %s", res.Makespan.RatString(), ref.RatString())
		return r
	}
	r.Ratio = ratF(new(big.Rat).Quo(res.Makespan, ref))
	return r
}

func ratF(x *big.Rat) float64 {
	f, _ := x.Float64()
	return f
}

// checkResult validates a returned schedule against the instance it
// answers and requires the reported makespan to be the schedule's own and
// no smaller than the certified lower bound.
func checkResult(in *ccsched.Instance, v ccsched.Variant, res *ccsched.Result) error {
	if res.Variant != v {
		return fmt.Errorf("result is for variant %v, want %v", res.Variant, v)
	}
	if res.Makespan == nil || res.LowerBound == nil {
		return errors.New("result has no makespan or lower bound")
	}
	lb, err := ccsched.LowerBound(in, v)
	if err != nil {
		return err
	}
	if res.LowerBound.Cmp(lb) != 0 {
		return fmt.Errorf("lower bound %s, recomputed %s", res.LowerBound.RatString(), lb.RatString())
	}
	if res.Makespan.Cmp(lb) < 0 {
		return fmt.Errorf("makespan %s below the certified lower bound %s", res.Makespan.RatString(), lb.RatString())
	}
	var got *big.Rat
	switch v {
	case ccsched.Splittable:
		if res.CompactSplit == nil && res.Split == nil {
			return errors.New("splittable result carries no schedule")
		}
		if res.CompactSplit != nil {
			if err := res.CompactSplit.Validate(in); err != nil {
				return err
			}
			got = res.CompactSplit.Makespan()
		}
		if res.Split != nil {
			if err := res.Split.Validate(in); err != nil {
				return err
			}
			if s := res.Split.Makespan(); got != nil && s.Cmp(got) != 0 {
				return fmt.Errorf("explicit schedule makespan %s differs from the compact one %s", s.RatString(), got.RatString())
			} else {
				got = s
			}
		}
	case ccsched.Preemptive:
		if res.Preemptive == nil {
			return errors.New("preemptive result carries no schedule")
		}
		if err := res.Preemptive.Validate(in); err != nil {
			return err
		}
		got = res.Preemptive.Makespan()
	case ccsched.NonPreemptive:
		if res.NonPreemptive == nil {
			return errors.New("non-preemptive result carries no schedule")
		}
		if err := res.NonPreemptive.Validate(in); err != nil {
			return err
		}
		got = new(big.Rat).SetInt64(res.NonPreemptive.Makespan(in))
	}
	if got.Cmp(res.Makespan) != 0 {
		return fmt.Errorf("reported makespan %s, schedule's %s", res.Makespan.RatString(), got.RatString())
	}
	return nil
}

// schemeEngine reports whether a PTAS result's schedule came from the
// configuration ILP rather than a constant-factor fallback.
func schemeEngine(engine string) bool { return engine == "augment" || engine == "branch-bound" }

func runDeck(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var d *deckRef
	for i := 0; i < deckSetups; i++ {
		start := time.Now()
		var err error
		if d, err = prepareDeck(); err != nil {
			return nil, err
		}
		if _, _, status, err := runChild(cellCPUBudget, cellWall, "--cell", pingCell); status != "ok" || err != nil {
			return nil, fmt.Errorf("deck set-up child: %s %v", status, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	cells := deckCells()
	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		runs                       []cellRun
		lat, ratios, passS         []float64
		ok, inSLO, scheme, nFailed int
		allocs                     []float64
		failedCells                = map[string]string{}
	)
	start := time.Now()
	end := cfg.deadline(start)
	// Whole passes only, at least one: every pass delivers the full deck.
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		passStart := time.Now()
		for _, i := range rng.Perm(len(cells)) {
			r := runCell(d, cells[i], cfg.trace)
			runs = append(runs, r)
			o.attempted++
			switch r.Status {
			case "ok":
				ok++
				lat = append(lat, r.SolveCPUMs)
				ratios = append(ratios, r.Ratio)
				if r.SolveCPUMs <= ms(deckSLO) {
					inSLO++
				}
				if schemeEngine(r.Engine) {
					scheme++
				}
				allocs = append(allocs, r.AllocMB)
			case "mismatch":
				o.mismatch("%s: %s", r.Cell, r.Error)
				fallthrough
			default:
				nFailed++
				// A failed cell missed every latency limit; it enters the
				// percentiles at the CPU budget it was held to.
				lat = append(lat, ms(cellCPUBudget))
				failedCells[r.Cell] = r.Status
			}
		}
		passS = append(passS, time.Since(passStart).Seconds())
	}
	o.failed = nFailed
	deckS := median(passS)
	t := tailOf(lat)
	o.metrics["setup_s"] = median(setups)
	o.metrics["ok_share"] = share(ok, o.attempted)
	o.detail["deck_solve_p50_ms"] = median(lat)
	o.detail["deck_solve_tail_ms"] = t
	o.metrics["slo_share"] = share(inSLO, o.attempted)
	o.metrics["ratio_gmean"] = gmean(ratios)
	o.metrics["scheme_share"] = share(scheme, o.attempted)
	o.metrics["mem_mb"] = median(allocs)
	o.detail["deck_s"] = deckS
	o.detail["passes"] = len(passS)
	o.detail["failed_cells"] = failedCells
	o.detail["cell_cpu_budget_ms"] = ms(cellCPUBudget)
	o.detail["cell_wall_ms"] = ms(cellWall)
	o.detail["cell_mem_cap_mb"] = cellMemCapMB
	o.detail["slo_ms"] = ms(deckSLO)
	o.detail["cells"] = runs
	if cfg.trace {
		if err := deckLayers(d, runs, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
