package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ccsched"
	"ccsched/internal/approx"
	"ccsched/internal/core"
	"ccsched/internal/ilp"
	"ccsched/internal/lp"
	"ccsched/internal/nfold"
	"ccsched/internal/ptas"
)

// The traced pass times calls into each layer's public functions from this
// package, on fixtures drawn from the workload's own inputs, and sums the
// layers' own counters beside the times. layerSample is additive so that
// the deck's cell children can each report one and the parent adds them.
type layerSample struct {
	LPSolves, LPPivots int
	LPNs               int64

	ILPSolves, ILPNodes, ILPPivots, ILPWarmHits, ILPNodeLimit int
	ILPNs                                                     int64

	NFBuilds  int
	NFBuildNs int64

	AugSolves, AugSteps, AugDecided int
	AugNs                           int64

	PTASSolves, PTASProbes, PTASFallback, PTASApproxMin, PTASCacheHits, PTASCertHits int
	PTASNs                                                                           int64

	ApproxSolves int
	ApproxNs     int64
	LBCalls      int
	LBNs         int64
	Validates    int
	ValidateNs   int64

	Resolves, ResGuesses, ResCacheHits, ResCertHits, ResWarmHits int
	ResolveNs                                                    int64

	Rungs  int
	RungNs int64

	// StageSelfUs is the in-program trace's (Options.Trace) self time per
	// stage, summed over traced solves. Speculative probes overlap, so
	// shares are taken of the summed self time, not of wall time.
	StageSelfUs map[string]int64

	// OverheadShares holds, for each pair of back-to-back solves of one
	// fixture with and without Options.Trace, (traced − untraced) ÷
	// untraced.
	OverheadShares []float64
}

func (a *layerSample) add(b *layerSample) {
	if b == nil {
		return
	}
	stages := a.StageSelfUs
	a.LPSolves += b.LPSolves
	a.LPPivots += b.LPPivots
	a.LPNs += b.LPNs
	a.ILPSolves += b.ILPSolves
	a.ILPNodes += b.ILPNodes
	a.ILPPivots += b.ILPPivots
	a.ILPWarmHits += b.ILPWarmHits
	a.ILPNodeLimit += b.ILPNodeLimit
	a.ILPNs += b.ILPNs
	a.NFBuilds += b.NFBuilds
	a.NFBuildNs += b.NFBuildNs
	a.AugSolves += b.AugSolves
	a.AugSteps += b.AugSteps
	a.AugDecided += b.AugDecided
	a.AugNs += b.AugNs
	a.PTASSolves += b.PTASSolves
	a.PTASProbes += b.PTASProbes
	a.PTASFallback += b.PTASFallback
	a.PTASApproxMin += b.PTASApproxMin
	a.PTASCacheHits += b.PTASCacheHits
	a.PTASCertHits += b.PTASCertHits
	a.PTASNs += b.PTASNs
	a.ApproxSolves += b.ApproxSolves
	a.ApproxNs += b.ApproxNs
	a.LBCalls += b.LBCalls
	a.LBNs += b.LBNs
	a.Validates += b.Validates
	a.ValidateNs += b.ValidateNs
	a.Resolves += b.Resolves
	a.ResGuesses += b.ResGuesses
	a.ResCacheHits += b.ResCacheHits
	a.ResCertHits += b.ResCertHits
	a.ResWarmHits += b.ResWarmHits
	a.ResolveNs += b.ResolveNs
	a.Rungs += b.Rungs
	a.RungNs += b.RungNs
	a.OverheadShares = append(a.OverheadShares, b.OverheadShares...)
	if stages == nil {
		stages = map[string]int64{}
	}
	for k, v := range b.StageSelfUs {
		stages[k] += v
	}
	a.StageSelfUs = stages
}

// inProgramStages are the stages of the solve trace whose self-time share
// the traced pass reports (labelled "inprogram." — these spans are
// recorded inside the library, unlike every other per-layer number).
var inProgramStages = []string{"bb_nodes", "template_build", "probe", "nfold_augment"}

// metrics turns the sums into the per-layer metrics.
func (a *layerSample) metrics(out map[string]float64) {
	per := func(num int64, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	out["lp.pivots_per_solve"] = share(a.LPPivots, a.LPSolves)
	out["lp.us_per_pivot"] = per(a.LPNs, a.LPPivots) / 1e3
	out["lp.pivots_per_node"] = share(a.ILPPivots, a.ILPNodes)
	out["ilp.nodes_per_probe"] = share(a.ILPNodes, a.ILPSolves)
	out["ilp.us_per_node"] = per(a.ILPNs, a.ILPNodes) / 1e3
	out["ilp.warm_hit_share"] = share(a.ILPWarmHits, a.ILPNodes)
	out["ilp.nodelimit_share"] = share(a.ILPNodeLimit, a.ILPSolves)
	out["nfold.build_us"] = per(a.NFBuildNs, a.NFBuilds) / 1e3
	out["nfold.augment_ms"] = per(a.AugNs, a.AugSolves) / 1e6
	out["nfold.augment_steps"] = share(a.AugSteps, a.AugSolves)
	out["nfold.augment_decided_share"] = share(a.AugDecided, a.AugSolves)
	out["ptas.solve_ms"] = per(a.PTASNs, a.PTASSolves) / 1e6
	out["ptas.probes_per_solve"] = share(a.PTASProbes, a.PTASSolves)
	out["ptas.fallback_share"] = share(a.PTASFallback, a.PTASSolves)
	out["ptas.approx_min_share"] = share(a.PTASApproxMin, a.PTASSolves)
	out["ptas.cache_hit_share"] = share(a.PTASCacheHits, a.PTASProbes)
	out["ptas.cert_hits_per_solve"] = share(a.PTASCertHits, a.PTASSolves)
	out["approx.solve_us"] = per(a.ApproxNs, a.ApproxSolves) / 1e3
	out["core.lower_bound_us"] = per(a.LBNs, a.LBCalls) / 1e3
	out["core.validate_us"] = per(a.ValidateNs, a.Validates) / 1e3
	out["session.resolve_ms"] = per(a.ResolveNs, a.Resolves) / 1e6
	out["session.cache_hit_share"] = share(a.ResCacheHits, a.ResGuesses)
	out["session.cert_hits_per_resolve"] = share(a.ResCertHits, a.Resolves)
	out["session.warm_hits_per_resolve"] = share(a.ResWarmHits, a.Resolves)
	out["anytime.rung_ms"] = per(a.RungNs, a.Rungs) / 1e6
	var total int64
	for _, v := range a.StageSelfUs {
		total += v
	}
	for _, s := range inProgramStages {
		v := 0.0
		if total > 0 {
			v = float64(a.StageSelfUs[s]) / float64(total)
		}
		out["inprogram."+s+"_share"] = v
	}
	// The median pair: at or below 0, tracing costs less than the noise.
	out["trace.overhead_share"] = median(a.OverheadShares)
}

// timed runs f and returns its wall time in nanoseconds.
func timed(f func()) int64 {
	start := time.Now()
	f()
	return int64(time.Since(start))
}

// solverFixtureMaxNodes is the branch-and-bound budget of the ilp layer's
// timed call, the library's per-probe default.
const solverFixtureMaxNodes = 4000

// probeSolver times the lp, ilp and nfold layers on the splittable
// configuration N-fold of in at its certified lower bound.
func (a *layerSample) probeSolver(ctx context.Context, in *ccsched.Instance, eps float64) error {
	var prob *nfold.Problem
	var err error
	a.NFBuildNs += timed(func() { prob, err = ptas.BuildSplittableNFold(in, eps) })
	a.NFBuilds++
	if err != nil {
		return fmt.Errorf("BuildSplittableNFold: %w", err)
	}
	flat, err := prob.Flatten()
	if err != nil {
		return fmt.Errorf("Flatten: %w", err)
	}
	var sol *lp.Solution
	a.LPNs += timed(func() { sol, err = lp.SolveCtx(ctx, &flat.Problem) })
	if err != nil {
		return fmt.Errorf("lp.SolveCtx: %w", err)
	}
	a.LPSolves++
	a.LPPivots += sol.Iterations

	if flat, err = prob.Flatten(); err != nil {
		return fmt.Errorf("Flatten: %w", err)
	}
	var ir *ilp.Result
	a.ILPNs += timed(func() {
		ir, err = ilp.SolveCtx(ctx, flat, &ilp.Options{MaxNodes: solverFixtureMaxNodes, FirstFeasible: true})
	})
	if err != nil {
		return fmt.Errorf("ilp.SolveCtx: %w", err)
	}
	a.ILPSolves++
	a.ILPNodes += ir.Nodes
	a.ILPPivots += ir.Pivots
	a.ILPWarmHits += ir.WarmHits
	if ir.Status == ilp.NodeLimit {
		a.ILPNodeLimit++
	}

	var nr *nfold.Result
	a.AugNs += timed(func() { nr, err = nfold.SolveCtx(ctx, prob, &nfold.Options{Engine: nfold.EngineAugment}) })
	if err != nil {
		return fmt.Errorf("nfold.SolveCtx: %w", err)
	}
	a.AugSolves++
	a.AugSteps += nr.Nodes
	if nr.Status != nfold.Unknown {
		a.AugDecided++
	}
	return nil
}

// approxReps repeats the microsecond-scale approx and core calls so that
// each timing spans more than the clock's resolution.
const approxReps = 10

// probeApprox times the constant-factor tier, the certified lower bound
// and schedule validation on in.
func (a *layerSample) probeApprox(in *core.Instance, v ccsched.Variant) error {
	var validate func() error
	var err error
	for r := 0; r < approxReps; r++ {
		a.ApproxNs += timed(func() {
			switch v {
			case ccsched.Splittable:
				var res *approx.SplitResult
				if res, err = approx.SolveSplittable(in); err == nil {
					validate = func() error { return res.Compact.Validate(in) }
				}
			case ccsched.Preemptive:
				var res *approx.PreemptiveResult
				if res, err = approx.SolvePreemptive(in); err == nil {
					validate = func() error { return res.Schedule.Validate(in) }
				}
			default:
				var res *approx.NonPreemptiveResult
				if res, err = approx.SolveNonPreemptive(in); err == nil {
					validate = func() error { return res.Schedule.Validate(in) }
				}
			}
		})
		if err != nil {
			return fmt.Errorf("approx %v: %w", v, err)
		}
		a.ApproxSolves++
		a.LBNs += timed(func() { _, err = core.LowerBound(in, v) })
		if err != nil {
			return fmt.Errorf("core.LowerBound: %w", err)
		}
		a.LBCalls++
		a.ValidateNs += timed(func() { err = validate() })
		if err != nil {
			return fmt.Errorf("validating the approx %v schedule: %w", v, err)
		}
		a.Validates++
	}
	return nil
}

// recordPTAS adds one PTAS-tier result's report (and its in-program trace,
// when it carries one) to the sums.
func (a *layerSample) recordPTAS(res *ccsched.Result, d time.Duration) {
	a.PTASSolves++
	a.PTASNs += int64(d)
	a.PTASProbes += res.Report.Guesses
	a.PTASCacheHits += res.Report.CacheHits
	a.PTASCertHits += res.Report.CertHits
	switch string(res.Report.Engine) {
	case "approx-fallback":
		a.PTASFallback++
	case "approx-min":
		a.PTASApproxMin++
	}
	if res.Trace != nil {
		a.addTrace(res.Trace)
	}
}

// addTrace adds one in-program solve trace's stage self times.
func (a *layerSample) addTrace(t *ccsched.SolveTrace) {
	if a.StageSelfUs == nil {
		a.StageSelfUs = map[string]int64{}
	}
	child := make([]int64, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 && s.Parent < len(child) {
			child[s.Parent] += s.DurUs
		}
	}
	for i, s := range t.Spans {
		a.StageSelfUs[s.Name] += max(0, s.DurUs-child[i])
	}
	// Spans past the collector's cap are folded into per-name rows.
	for _, ag := range t.Aggregated {
		a.StageSelfUs[ag.Name] += ag.TotalUs
	}
}

// overheadPairs is how many pairs of untraced and traced solves of one
// fixture the tracing overhead compares.
const overheadPairs = 7

// probePTAS solves in cold at the PTAS tier in overheadPairs pairs of one
// untraced and one traced solve, which of the two goes first alternating
// from pair to pair. It records the first untraced solve's report, the
// first traced solve's in-program trace, and each pair's tracing overhead.
func (a *layerSample) probePTAS(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) error {
	opts.Tier = ccsched.TierPTAS
	for r := 0; r < overheadPairs; r++ {
		var d [2]time.Duration // untraced, traced
		for k := 0; k < 2; k++ {
			t := (k + r) % 2 // 1 for the traced solve
			o := opts
			o.Cache = ccsched.NewFeasibilityCache()
			o.Trace = t == 1
			start := time.Now()
			res, err := ccsched.Solve(ctx, in, o)
			d[t] = time.Since(start)
			if err != nil {
				return fmt.Errorf("PTAS solve: %w", err)
			}
			if r == 0 && o.Trace {
				a.addTrace(res.Trace)
			} else if r == 0 {
				a.recordPTAS(res, d[t])
			}
		}
		a.OverheadShares = append(a.OverheadShares, float64(d[1]-d[0])/float64(d[0]))
	}
	return nil
}

// churnRound resizes 1/churnDivisor of the jobs by up to ±2%, the
// BenchmarkSessionChurn mutation, and returns the (position, new size)
// pairs it changed.
func churnRound(rng *rand.Rand, p []int64) [][2]int64 {
	var out [][2]int64
	for k := 0; k < max(1, len(p)/churnDivisor); k++ {
		pos := rng.Intn(len(p))
		cur := p[pos]
		next := cur + rng.Int63n(2*cur/50+1) - cur/50
		if next < 1 {
			next = 1
		}
		p[pos] = next
		out = append(out, [2]int64{int64(pos), next})
	}
	return out
}

// churnDivisor makes each churn round touch 1/20 = 5% of the jobs.
const churnDivisor = 20

// probeSession times in-process Session re-solves of in after each of
// rounds churn rounds drawn from seed.
func (a *layerSample) probeSession(ctx context.Context, in *ccsched.Instance, opts ccsched.Options, rounds int, seed int64) error {
	sess, err := ccsched.NewSession(in, opts)
	if err != nil {
		return err
	}
	if _, err := sess.Solve(ctx); err != nil {
		return fmt.Errorf("session first solve: %w", err)
	}
	ids := sess.JobIDs()
	p := append([]int64(nil), in.P...)
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		for _, ch := range churnRound(rng, p) {
			if err := sess.Resize(ids[ch[0]], ch[1]); err != nil {
				return err
			}
		}
		var res *ccsched.Result
		a.ResolveNs += timed(func() { res, err = sess.Solve(ctx) })
		if err != nil {
			return fmt.Errorf("session re-solve: %w", err)
		}
		a.Resolves++
		a.ResGuesses += res.Report.Guesses
		a.ResCacheHits += res.Report.CacheHits
		a.ResCertHits += res.Report.CertHits
		a.ResWarmHits += int(res.Report.WarmHits)
	}
	return nil
}

// probeLadder steps a TierAnytime ladder over in to its terminal rung.
func (a *layerSample) probeLadder(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) error {
	opts.Tier = ccsched.TierAnytime
	sess, err := ccsched.NewSession(in, opts)
	if err != nil {
		return err
	}
	l := ccsched.NewLadder(sess)
	for {
		var done bool
		a.RungNs += timed(func() { _, done, err = l.Step(ctx) })
		if err != nil {
			return fmt.Errorf("ladder step: %w", err)
		}
		a.Rungs++
		if done {
			return nil
		}
	}
}

// sameResult reports whether two answers for in carry the same makespan
// and the same schedule — the bit-identity a session owes a cold solve.
func sameResult(in *ccsched.Instance, a, b *ccsched.Result) error {
	if a.Makespan.Cmp(b.Makespan) != 0 {
		return fmt.Errorf("makespan %s vs %s", a.Makespan.RatString(), b.Makespan.RatString())
	}
	if fingerprint(a, in) != fingerprint(b, in) {
		return errors.New("schedules differ")
	}
	return nil
}

// fingerprint renders a result's schedule with each job named by its size
// and class rather than its index, sorted: the same placement of the same
// jobs submitted in another order fingerprints identically, including
// when the server swaps two interchangeable (equal size and class) jobs.
func fingerprint(r *ccsched.Result, in *ccsched.Instance) string {
	job := func(j int) string {
		if j < 0 || j >= in.N() {
			return fmt.Sprintf("bad-job-%d", j)
		}
		return fmt.Sprintf("%d/%d", in.P[j], in.Class[j])
	}
	var rows []string
	switch {
	case r.NonPreemptive != nil:
		for j, m := range r.NonPreemptive.Assign {
			rows = append(rows, fmt.Sprintf("%s@%d", job(j), m))
		}
	case r.Preemptive != nil:
		for _, p := range r.Preemptive.Pieces {
			rows = append(rows, fmt.Sprintf("%s@%d:%s+%s", job(p.Job), p.Machine, p.Start.String(), p.Size.String()))
		}
	case r.CompactSplit != nil:
		for gi, g := range r.CompactSplit.Groups {
			for _, p := range g.Pieces {
				rows = append(rows, fmt.Sprintf("%s@g%d×%d:%s", job(p.Job), gi, g.Count, p.Size.String()))
			}
		}
	case r.Split != nil:
		for _, p := range r.Split.Pieces {
			rows = append(rows, fmt.Sprintf("%s@%d:%s", job(p.Job), p.Machine, p.Size.String()))
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}
