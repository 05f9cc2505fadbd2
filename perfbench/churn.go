package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// The session-churn workload: one client in a closed loop on
// /v1/sessions. First one TierAnytime session on the ptas-deck
// uniform/splittable cell is watched over SSE to its terminal ε=½ rung;
// then PATCH rounds resize 5% of the jobs of BenchmarkSessionChurn's
// session until the run's time is up. The session instance is that
// benchmark's (generator seed 101) and --seed draws the rounds: on other
// generator seeds the same shape's ε=1 solve ranges from 50 ms to 12 s
// (seed 12 falls back to approx-min), which would make this workload's
// figures a property of the seed rather than of the code. The deck keeps
// such fallbacks in view.
var churnGen = ccsched.GeneratorConfig{N: 1000, Classes: 100, Machines: 50, Slots: 3, PMax: 10000, Seed: 101}

var churnOpts = ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}

const (
	// churnSLO is the server CPU time per round slo_share counts against.
	// Rounds are timed in the server child's CPU time, which the kernel
	// does not charge with time the hypervisor steals: in wall time, one
	// run with 24% steal had half its rounds over the 90th percentile of a
	// quiet run. The limit sits between the 90th percentile of quiet runs
	// (3.6-5.4 ms over 12 runs on a 2-vCPU VM, go1.24) and the 95th
	// (5.7-14 ms), where the cheap rounds end and the full re-solves begin.
	churnSLO    = 6 * time.Millisecond
	churnSetups = 3
	// churnVerifyEvery is the stride of the rounds compared against a cold
	// Solve, outside the timed region.
	churnVerifyEvery = 50
	// churnHeapRounds is the round after which the server's retained heap
	// is read: the session's caches grow with the rounds, so a fixed point
	// keeps mem_mb independent of how many rounds a run completes (runs
	// shorter than this read it at their end).
	churnHeapRounds = 300
	// anytimeFamily is the deck family whose splittable cell the anytime
	// session refines.
	anytimeFamily = "uniform"
)

func runChurn(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		setups []float64
		v      *svc
		base   *ccsched.Instance
		sess   server.SessionResponse
	)
	for i := 0; i < churnSetups; i++ {
		start := time.Now()
		var err error
		if base, err = ccsched.Generate("uniform", churnGen); err != nil {
			return nil, err
		}
		if v, err = startServer(1); err != nil {
			return nil, err
		}
		if sess, err = createChurnSession(ctx, v, base); err != nil {
			v.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < churnSetups-1 {
			v.close()
		}
	}
	defer v.close()
	if err := checkResult(base, churnOpts.Variant, sess.Result); err != nil {
		o.mismatch("churn session first answer: %v", err)
	}

	start := time.Now()
	end := cfg.deadline(start)
	aw, err := watchAnytime(ctx, v)
	if err != nil {
		return nil, err
	}

	before, err := v.metrics(ctx)
	if err != nil {
		return nil, err
	}
	// Each round is checked right after its PATCH returns, outside the
	// timed region, and every churnVerifyEvery-th round is also compared
	// with a cold Solve of the instance the session should hold.
	rng := rand.New(rand.NewSource(cfg.seed))
	mirror := append([]int64(nil), base.P...)
	var (
		lat, cpuMs, ratios               []float64
		rounds, ok, inSLO, scheme, colds int
		heapAt                           float64
	)
	for rounds == 0 || time.Now().Before(end) {
		var delta server.SessionDelta
		for _, ch := range churnRound(rng, mirror) {
			delta.Resize = append(delta.Resize, server.SessionResize{ID: sess.JobIDs[ch[0]], P: ch[1]})
		}
		body, err := json.Marshal(delta)
		if err != nil {
			return nil, err
		}
		c0, err := v.cpu(ctx)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		status, raw, err := v.do(ctx, "PATCH", "/v1/sessions/"+sess.SessionID, body, nil)
		d := time.Since(t0)
		c1, cerr := v.cpu(ctx)
		if cerr != nil {
			return nil, cerr
		}
		c := c1 - c0
		o.attempted++
		round := rounds
		rounds++
		in := &ccsched.Instance{P: append([]int64(nil), mirror...), Class: base.Class, M: base.M, Slots: base.Slots}
		res, err := decodeSession(status, raw, err)
		if err == nil {
			err = checkResult(in, churnOpts.Variant, res)
		}
		if err == nil && round%churnVerifyEvery == 0 {
			colds++
			cold, cerr := coldSolve(ctx, in, churnOpts)
			if cerr != nil {
				return nil, fmt.Errorf("cold Solve of round %d: %w", round, cerr)
			}
			if err = sameResult(in, res, cold); err != nil {
				err = fmt.Errorf("against a cold Solve: %w", err)
			}
		}
		if rounds == churnHeapRounds {
			h, herr := v.heapMB(ctx)
			if herr != nil {
				return nil, herr
			}
			heapAt = h
		}
		if err != nil {
			o.fail(err, "round %d", round)
			// A failed round missed every limit.
			lat = append(lat, ms(d))
			cpuMs = append(cpuMs, math.Max(ms(c), ms(churnSLO)))
			var f *opFailure
			if errors.As(err, &f) {
				// What the session holds after a failed PATCH is unknown:
				// the rounds go on in a new session on the instance the
				// benchmark holds, created outside the timed region.
				_, _, _ = v.do(ctx, "DELETE", "/v1/sessions/"+sess.SessionID, nil, nil)
				if sess, err = createChurnSession(ctx, v, in); err != nil {
					return nil, fmt.Errorf("after round %d failed: %w", round, err)
				}
			}
			continue
		}
		ok++
		lat = append(lat, ms(d))
		cpuMs = append(cpuMs, ms(c))
		if c <= churnSLO {
			inSLO++
		}
		if schemeEngine(string(res.Report.Engine)) {
			scheme++
		}
		ratios = append(ratios, ratF(new(big.Rat).Quo(res.Makespan, res.LowerBound)))
	}
	if rounds < churnHeapRounds {
		if heapAt, err = v.heapMB(ctx); err != nil {
			return nil, err
		}
	}
	o.metrics["mem_mb"] = heapAt
	after, err := v.metrics(ctx)
	if err != nil {
		return nil, err
	}

	if err := aw.verify(ctx); err != nil {
		return nil, err
	}
	o.attempted++
	if aw.err != nil {
		o.fail(aw.err, "anytime")
	} else {
		ok++
	}
	t := tailOf(lat)
	o.metrics["setup_s"] = median(setups)
	o.metrics["ok_share"] = share(ok, o.attempted)
	o.detail["resolve_p50_ms"] = median(lat)
	o.detail["resolve_ms"] = spread(lat)
	o.detail["resolve_cpu_ms"] = spread(cpuMs)
	o.detail["resolve_tail_ms"] = t
	o.metrics["slo_share"] = share(inSLO, rounds)
	o.metrics["ratio_gmean"] = gmean(ratios)
	o.metrics["scheme_share"] = share(scheme, rounds)
	o.detail["rounds"] = rounds
	o.detail["cold_checked_rounds"] = colds
	o.detail["slo_cpu_ms"] = ms(churnSLO)
	o.detail["anytime"] = aw
	if cfg.trace {
		serverLayers(before, after, func(m server.MetricsSnapshot) server.LatencySnapshot { return m.SessionSolveLatency }, o.metrics)
		if err := churnFixtureLayers(ctx, base, cfg.seed, o.metrics); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func decodeSession(status int, raw []byte, err error) (*ccsched.Result, error) {
	if err := refused(status, raw, err); err != nil {
		return nil, err
	}
	var resp server.SessionResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, &opFailure{kind: "status " + resp.Status, msg: resp.Error}
	}
	return resp.Result, nil
}

// createChurnSession creates the churn session on in. Its first answer is
// part of the set-up; a session that cannot be created stops the run.
func createChurnSession(ctx context.Context, v *svc, in *ccsched.Instance) (server.SessionResponse, error) {
	var sess server.SessionResponse
	body, err := json.Marshal(server.SessionCreateRequest{Instance: in, Options: churnOpts})
	if err != nil {
		return sess, err
	}
	status, raw, err := v.do(ctx, "POST", "/v1/sessions", body, &sess)
	if err != nil || status != http.StatusOK && status != http.StatusCreated {
		return sess, fmt.Errorf("creating the churn session: status %d %v %s", status, err, raw)
	}
	if sess.Result == nil || len(sess.JobIDs) != in.N() {
		return sess, fmt.Errorf("churn session created without a result or job ids")
	}
	return sess, nil
}

// coldSolve solves in from scratch with a fresh feasibility cache: the
// reference a session's answer must equal.
func coldSolve(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
	opts.Cache = ccsched.NewFeasibilityCache()
	return ccsched.Solve(ctx, in, opts)
}

// anytimeWatch is the anytime session's record: time to the first answer
// (the create call), time to the final event, the final gap and the
// number of events streamed.
type anytimeWatch struct {
	FirstMs  float64 `json:"anytime_first_ms"`
	FinalMs  float64 `json:"anytime_final_ms"`
	FinalGap float64 `json:"anytime_final_gap"`
	Events   int     `json:"events"`
	Error    string  `json:"error,omitempty"`

	in    *ccsched.Instance
	final *ccsched.Result
	err   error
}

// watchAnytime creates the anytime session and streams its /watch events
// to the final one. A harness error is returned; a missing answer is
// recorded in the watch's err.
func watchAnytime(ctx context.Context, v *svc) (*anytimeWatch, error) {
	in, err := deckInstance(anytimeFamily)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.SessionCreateRequest{Instance: in, Options: anytimeOpts})
	if err != nil {
		return nil, err
	}
	aw := &anytimeWatch{in: in}
	start := time.Now()
	var created server.SessionResponse
	status, raw, err := v.do(ctx, "POST", "/v1/sessions", body, &created)
	aw.FirstMs = ms(time.Since(start))
	if err != nil {
		err = &opFailure{kind: "transport", msg: err.Error()}
	} else if status != http.StatusOK && status != http.StatusCreated {
		err = &opFailure{kind: fmt.Sprintf("http %d", status), msg: string(raw)}
	}
	if err == nil {
		aw.final, err = streamToFinal(ctx, v, created.SessionID, aw)
		aw.FinalMs = ms(time.Since(start))
	}
	if err != nil {
		aw.err = err
		aw.Error = err.Error()
	}
	return aw, nil
}

var anytimeOpts = ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: deckEpsilon}

// verify checks the anytime final answer against a cold TierPTAS Solve at
// the terminal ε, to which it must be bit-identical. A cold Solve that
// fails is returned: the answer cannot be checked.
func (a *anytimeWatch) verify(ctx context.Context) error {
	if a.err != nil {
		return nil
	}
	opts := anytimeOpts
	opts.Tier = ccsched.TierPTAS
	want, err := coldSolve(ctx, a.in, opts)
	if err != nil {
		return fmt.Errorf("cold Solve of the anytime instance: %w", err)
	}
	if err = checkResult(a.in, opts.Variant, a.final); err == nil {
		err = sameResult(a.in, a.final, want)
	}
	if err != nil {
		a.err = err
		a.Error = err.Error()
	}
	return nil
}

func streamToFinal(ctx context.Context, v *svc, id string, aw *anytimeWatch) (*ccsched.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", v.url+"/v1/sessions/"+id+"/watch", nil)
	if err != nil {
		return nil, err
	}
	resp, err := v.client.Do(req)
	if err != nil {
		return nil, &opFailure{kind: "transport", msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &opFailure{kind: fmt.Sprintf("http %d", resp.StatusCode), msg: "watch"}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.WatchEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("decoding a watch event: %w", err)
		}
		aw.Events++
		if ev.Final {
			aw.FinalGap = ev.Gap
			if ev.Result == nil {
				return nil, fmt.Errorf("final watch event carries no result")
			}
			return ev.Result, nil
		}
	}
	return nil, &opFailure{kind: "no final event", msg: fmt.Sprintf("watch stream ended after %d events: %v", aw.Events, sc.Err())}
}

// churnFixtureLayers feeds the run's churn instance and the anytime
// instance to each layer in-process.
func churnFixtureLayers(ctx context.Context, base *ccsched.Instance, seed int64, out map[string]float64) error {
	var ls layerSample
	ladderIn, err := deckInstance(anytimeFamily)
	if err != nil {
		return err
	}
	if err := ls.probeSolver(ctx, ladderIn, deckEpsilon); err != nil {
		return err
	}
	if err := ls.probePTAS(ctx, base, churnOpts); err != nil {
		return err
	}
	if err := ls.probeSession(ctx, base, churnOpts, 20, seed); err != nil {
		return err
	}
	if err := ls.probeLadder(ctx, ladderIn, anytimeOpts); err != nil {
		return err
	}
	if err := ls.probeApprox(base, churnOpts.Variant); err != nil {
		return err
	}
	ls.metrics(out)
	return nil
}
