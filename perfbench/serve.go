package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// svc is ccserved's handler (server.New with default settings) serving
// on loopback from a child process of the benchmark, as ccserved would,
// plus a client limited to conns connections. Keeping the server out of
// the benchmark's process keeps the load generator's goroutines off the
// server's scheduler and heap.
type svc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	exited chan error
	url    string
	client *http.Client
}

// serveChildFlag runs this binary as the server child.
const serveChildFlag = "serve-child"

// heapPath and cpuPath are the benchmark's own endpoints on the server
// child: the live heap after a forced collection, and the CPU time the
// child has used so far, in nanoseconds.
const (
	heapPath = "/perfbench/heap"
	cpuPath  = "/perfbench/cpu"
)

// runServeChild serves ccserved's handler on a loopback port, prints the
// address, and drains when its standard input closes (the parent closing
// it, or dying).
func runServeChild() error {
	srv := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("GET "+heapPath, func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%g", retainedHeapMB())
	})
	mux.HandleFunc("GET "+cpuPath, func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "%d", processCPU().Nanoseconds())
	})
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	if _, err := fmt.Println(ln.Addr().String()); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent lets go
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx) // an overrunning drain is cut by Close
	_ = hs.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return srv.Shutdown(ctx)
}

func startServer(conns int) (*svc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--"+serveChildFlag)
	cmd.SysProcAttr = diesWithParent()
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	v := &svc{cmd: cmd, stdin: stdin, exited: make(chan error, 1)}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	go func() { v.exited <- cmd.Wait() }()
	if err != nil {
		v.close()
		return nil, fmt.Errorf("server child: %w", err)
	}
	v.url = "http://" + strings.TrimSpace(addr)
	v.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	if status, raw, err := v.do(context.Background(), "GET", "/healthz", nil, nil); err != nil || status != http.StatusOK {
		v.close()
		return nil, fmt.Errorf("healthz: status %d %v %s", status, err, raw)
	}
	return v, nil
}

// close lets the server child drain and waits until it has exited,
// killing it if the drain overruns.
func (v *svc) close() {
	if v.client != nil {
		v.client.CloseIdleConnections()
	}
	_ = v.stdin.Close()
	select {
	case <-v.exited:
	case <-time.After(40 * time.Second):
		_ = v.cmd.Process.Kill()
		<-v.exited
	}
}

// heapMB reads the server child's live heap after a forced collection.
func (v *svc) heapMB(ctx context.Context) (float64, error) {
	status, raw, err := v.do(ctx, "GET", heapPath, nil, nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d %v", heapPath, status, err)
	}
	return strconv.ParseFloat(string(raw), 64)
}

// cpu reads the CPU time (user and system) the server child has used. The
// kernel does not charge a process for time the hypervisor steals from
// the VM, so differences of it are steal-free.
func (v *svc) cpu(ctx context.Context) (time.Duration, error) {
	status, raw, err := v.do(ctx, "GET", cpuPath, nil, nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d %v", cpuPath, status, err)
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	return time.Duration(n), err
}

// do sends one request and decodes a JSON answer into out (when non-nil),
// returning the HTTP status.
func (v *svc) do(ctx context.Context, method, path string, body []byte, out any) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, v.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := v.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, raw, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, raw, nil
}

func (v *svc) metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	status, _, err := v.do(ctx, "GET", "/metrics", nil, &m)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", status)
	}
	return m, err
}

// serverLayers turns /metrics deltas around a run into the server layer's
// metrics. solve picks the latency histogram the workload's solves land
// in (one-shot or session).
func serverLayers(before, after server.MetricsSnapshot, solve func(server.MetricsSnapshot) server.LatencySnapshot, out map[string]float64) {
	reqs := int(after.RequestsTotal - before.RequestsTotal)
	out["server.queue_wait_p50_ms"] = histQuantile(before.QueueWaitLatency, after.QueueWaitLatency, 0.5)
	out["server.queue_wait_tail_ms"] = histTail(before.QueueWaitLatency, after.QueueWaitLatency)
	out["server.solve_p50_ms"] = histQuantile(solve(before), solve(after), 0.5)
	out["server.coalesced_share"] = share(int(after.CoalescedHitsTotal-before.CoalescedHitsTotal), reqs)
	out["server.result_cache_hit_share"] = share(int(after.ResultCacheHitsTotal-before.ResultCacheHitsTotal), reqs)
	rejected := (after.RejectedQueueFullTotal - before.RejectedQueueFullTotal) +
		(after.RejectedQuarantinedTotal - before.RejectedQuarantinedTotal)
	out["server.rejected_share"] = share(int(rejected), reqs)
}

// histQuantile estimates quantile q of the observations between two
// snapshots of one cumulative histogram, interpolating linearly inside the
// bucket it falls in (observations past the last bound report that bound).
func histQuantile(before, after server.LatencySnapshot, q float64) float64 {
	n := after.Count - before.Count
	if n <= 0 || len(after.Buckets) != len(before.Buckets) {
		return 0
	}
	rank := q * float64(n)
	lo, prev := 0.0, int64(0)
	for i, b := range after.Buckets {
		cum := b.Count - before.Buckets[i].Count
		hi := b.LeMs
		if hi == 0 { // the +Inf bucket
			return lo
		}
		if float64(cum) >= rank {
			in := cum - prev
			if in <= 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-float64(prev))/float64(in)
		}
		lo, prev = hi, cum
	}
	return lo
}

// histTail is histQuantile at the highest percentile with at least ten
// observations beyond it.
func histTail(before, after server.LatencySnapshot) float64 {
	n := after.Count - before.Count
	if n <= 0 {
		return 0
	}
	return histQuantile(before, after, math.Max(0, float64(n-10))/float64(n))
}

// The serve-oneshot workload: independent users POSTing /v1/solve in an
// open loop at serveRate, over at most NumCPU connections, with latency
// counted from each request's due time.
const (
	// serveSaturation is the serving path's saturation throughput on this
	// mix, in requests per second: `run.sh --saturate --seconds 10` read
	// 381.6, 396.4 and 389.0 on seeds 1-3 on a 2-vCPU VM (go1.24).
	serveSaturation = 390.0
	// serveRate is the open loop's rate: half of serveSaturation, so that
	// the connections are busy about half the time and a serving path that
	// gets twice as slow saturates.
	serveRate      = serveSaturation / 2
	servePTASEvery = 3 // one original in three is a PTAS request
	// serveSLO is the latency limit slo_share counts against: about the
	// 97th percentile of a quiet run at serveRate on that host, past the
	// bulk of the PTAS requests' latencies (README.md records the
	// measurements). A limit inside that bulk moved with the host's speed.
	serveSLO = 50 * time.Millisecond
	// serveWarmup is how long the open loop runs, on requests planned from
	// another seed, before the measured requests start: the first seconds
	// of a fresh server answer slower.
	serveWarmup = 3 * time.Second
	// serveWindows is how many windows, in due order, the measured
	// requests are cut into. slo_share is the upper quartile of the
	// windows' shares: a burst of hypervisor steal lowers the windows it
	// falls in, a slower serving path lowers every window.
	serveWindows = 10
	serveSetups  = 5
	// serveFixtures is how many of the run's own instances the traced pass
	// feeds to each layer.
	serveFixtures = 3
)

var (
	serveApproxGen = ccsched.GeneratorConfig{N: 200, Classes: 20, Machines: 8, Slots: 3, PMax: 1000}
	servePTASGen   = ccsched.GeneratorConfig{N: 100, Classes: 10, Machines: 5, Slots: 2, PMax: 1000}
)

// serveReq is one planned request; a duplicate carries its original's
// index.
type serveReq struct {
	in    *ccsched.Instance
	opts  ccsched.Options
	body  []byte
	dupOf int // -1 for an original
}

// planServe draws the run's requests from the seed. The mix is fixed by
// position, so that seeds change instances but not proportions: every
// other request repeats an earlier original (drawn from the seed) with its
// jobs shuffled; every third original is an ε=1 PTAS request at n=100 on
// the uniform family; the rest are constant-factor requests at n=200
// cycling over every family; variants cycle within each tier.
func planServe(seed int64, total int) ([]serveReq, error) {
	rng := rand.New(rand.NewSource(seed))
	fams := ccsched.GeneratorFamilies()
	var reqs []serveReq
	var originals []int
	for i := 0; i < total; i++ {
		if i%2 == 1 {
			oi := originals[rng.Intn(len(originals))]
			o := reqs[oi]
			perm := rng.Perm(o.in.N())
			dup := &ccsched.Instance{M: o.in.M, Slots: o.in.Slots, P: make([]int64, len(perm)), Class: make([]int, len(perm))}
			for k, j := range perm {
				dup.P[k], dup.Class[k] = o.in.P[j], o.in.Class[j]
			}
			reqs = append(reqs, serveReq{in: dup, opts: o.opts, dupOf: oi})
			continue
		}
		var (
			in   *ccsched.Instance
			opts ccsched.Options
			err  error
		)
		if k := len(originals); k%servePTASEvery == servePTASEvery-1 {
			g := servePTASGen
			g.Seed = rng.Int63()
			in, err = ccsched.Generate("uniform", g)
			opts = ccsched.Options{Variant: deckVariants[(k/servePTASEvery)%len(deckVariants)], Tier: ccsched.TierPTAS, Epsilon: 1}
		} else {
			a := k - k/servePTASEvery
			g := serveApproxGen
			g.Seed = rng.Int63()
			in, err = ccsched.Generate(fams[(a/len(deckVariants))%len(fams)], g)
			opts = ccsched.Options{Variant: deckVariants[a%len(deckVariants)], Tier: ccsched.TierApprox}
		}
		if err != nil {
			return nil, err
		}
		originals = append(originals, len(reqs))
		reqs = append(reqs, serveReq{in: in, opts: opts, dupOf: -1})
	}
	for i := range reqs {
		b, err := json.Marshal(server.SolveRequest{Instance: reqs[i].in, Options: reqs[i].opts})
		if err != nil {
			return nil, err
		}
		reqs[i].body = b
	}
	return reqs, nil
}

// answer is one request's outcome: latency from its due time, how late
// the generator issued it, the response, and what checking it found.
// Answers are checked after the loop, so that checking does not compete
// with the server for the CPUs; a digest of the schedule is kept for the
// duplicate comparison.
type answer struct {
	latency time.Duration
	late    time.Duration
	status  int
	raw     []byte
	// err is the transport error until the answer is checked; then it is
	// the failure (an *opFailure) or the mismatch the check found.
	err    error
	ptas   bool
	scheme bool
	ratio  float64
	digest [32]byte
}

func (a *answer) check(r serveReq) {
	res, err := decodeSolve(a.status, a.raw, a.err)
	a.raw = nil
	if err == nil {
		err = checkResult(r.in, r.opts.Variant, res)
	}
	a.err = err
	if err != nil {
		return
	}
	a.ptas = r.opts.Tier == ccsched.TierPTAS
	a.scheme = schemeEngine(string(res.Report.Engine))
	a.ratio = ratF(new(big.Rat).Quo(res.Makespan, res.LowerBound))
	a.digest = sha256.Sum256([]byte(res.Makespan.RatString() + " " + fingerprint(res, r.in)))
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	conns := runtime.NumCPU()
	total := int(serveRate * float64(cfg.seconds))
	var (
		setups     []float64
		reqs, warm []serveReq
		v          *svc
	)
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		var err error
		if reqs, err = planServe(cfg.seed, total); err != nil {
			return nil, err
		}
		if warm, err = planServe(^cfg.seed, int(serveRate*serveWarmup.Seconds())); err != nil {
			return nil, err
		}
		if v, err = startServer(conns); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serveSetups-1 {
			v.close()
		}
	}
	defer v.close()

	// Warm-up answers are checked but not counted.
	warmAnswers := openLoop(ctx, v, warm, serveRate, conns)
	checkAnswers(warmAnswers, warm)
	warmFailed := 0
	for i, a := range warmAnswers {
		var f *opFailure
		if errors.As(a.err, &f) {
			warmFailed++
		} else if a.err != nil {
			o.mismatch("warm-up request %d: %v", i, a.err)
		}
	}

	before, err := v.metrics(ctx)
	if err != nil {
		return nil, err
	}
	answers := openLoop(ctx, v, reqs, serveRate, conns)
	if o.metrics["mem_mb"], err = v.heapMB(ctx); err != nil {
		return nil, err
	}
	after, err := v.metrics(ctx)
	if err != nil {
		return nil, err
	}

	var (
		lat, ratios, lateMs []float64
		ok, ptas, scheme    int
	)
	checkAnswers(answers, reqs)
	for i, a := range answers {
		o.attempted++
		lateMs = append(lateMs, ms(a.late))
		if a.err != nil {
			o.fail(a.err, "request %d", i)
			// A failed request missed every latency limit.
			lat = append(lat, math.Max(ms(a.latency), ms(serveSLO)))
			continue
		}
		ok++
		lat = append(lat, ms(a.latency))
		ratios = append(ratios, a.ratio)
		if a.ptas {
			ptas++
			if a.scheme {
				scheme++
			}
		}
	}
	t := tailOf(lat)
	o.metrics["setup_s"] = median(setups)
	o.metrics["ok_share"] = share(ok, o.attempted)
	o.detail["serve_p50_ms"] = median(lat)
	o.detail["serve_ms"] = spread(lat)
	o.detail["serve_tail_ms"] = t
	var windows []float64
	for w := 0; w < serveWindows; w++ {
		windows = append(windows, sloShare(answers[w*len(answers)/serveWindows:(w+1)*len(answers)/serveWindows], serveSLO))
	}
	o.metrics["slo_share"] = quantile(windows, 0.75)
	o.detail["slo_windows"] = windows
	curve := map[string]float64{}
	for _, lim := range []int{23, 35, 50, 75, 100} {
		curve[strconv.Itoa(lim)] = sloShare(answers, time.Duration(lim)*time.Millisecond)
	}
	o.detail["slo_share_at_ms"] = curve
	o.detail["warmup"] = map[string]any{"seconds": serveWarmup.Seconds(), "requests": len(warm), "failed": warmFailed}
	o.metrics["ratio_gmean"] = gmean(ratios)
	o.metrics["scheme_share"] = share(scheme, ptas)
	lt := tailOf(lateMs)
	o.detail["rate_per_s"] = serveRate
	o.detail["saturation_per_s"] = serveSaturation
	o.detail["connections"] = conns
	o.detail["slo_ms"] = ms(serveSLO)
	o.detail["ptas_requests"] = ptas
	o.detail["generator_late_ms"] = map[string]float64{"p50": median(lateMs), "tail": lt.Value, "max": maxOf(lateMs)}
	o.detail["server"] = map[string]int64{
		"requests":       after.RequestsTotal - before.RequestsTotal,
		"solves":         after.SolvesTotal - before.SolvesTotal,
		"coalesced":      after.CoalescedHitsTotal - before.CoalescedHitsTotal,
		"result_cached":  after.ResultCacheHitsTotal - before.ResultCacheHitsTotal,
		"rejected_queue": after.RejectedQueueFullTotal - before.RejectedQueueFullTotal,
	}
	if cfg.trace {
		serverLayers(before, after, func(m server.MetricsSnapshot) server.LatencySnapshot { return m.SolveLatency }, o.metrics)
		if err := serveFixtureLayers(ctx, reqs, o.metrics); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sloShare is the share of answers that came back correct within limit
// of their due time.
func sloShare(answers []answer, limit time.Duration) float64 {
	n := 0
	for _, a := range answers {
		if a.err == nil && a.latency <= limit {
			n++
		}
	}
	return share(n, len(answers))
}

// openLoop sends reqs at rate per second over at most conns connections
// and returns each one's answer, its latency counted from its due time: a
// request that waits for a free connection is late, and the wait counts.
func openLoop(ctx context.Context, v *svc, reqs []serveReq, rate float64, conns int) []answer {
	answers := make([]answer, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			status, raw, err := v.do(ctx, "POST", "/v1/solve", reqs[i].body, nil)
			answers[i] = answer{latency: time.Since(due), late: late, status: status, raw: raw, err: err}
			<-sem
		}(i, due, late)
	}
	wg.Wait()
	return answers
}

// closedLoop keeps conns requests in flight, each connection sending the
// next planned request as soon as its last one is answered, until end or
// until the plan runs out. It returns the answers of the requests sent
// (latency counted from sending) and the time they took.
func closedLoop(ctx context.Context, v *svc, reqs []serveReq, conns int, end time.Time) ([]answer, time.Duration) {
	answers := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, raw, err := v.do(ctx, "POST", "/v1/solve", reqs[i].body, nil)
				answers[i] = answer{latency: time.Since(t0), status: status, raw: raw, err: err}
			}
		}()
	}
	wg.Wait()
	return answers[:min(int(next.Load()), len(reqs))], time.Since(start)
}

// checkAnswers checks every answer against its request, and each
// duplicate's answer against its original's: an original's answer that is
// missing (failed) leaves its duplicates checked on their own.
func checkAnswers(answers []answer, reqs []serveReq) {
	for i := range answers {
		answers[i].check(reqs[i])
	}
	for i := range answers {
		a := &answers[i]
		d := reqs[i].dupOf
		if a.err != nil || d < 0 || d >= len(answers) || answers[d].err != nil {
			continue
		}
		if answers[d].digest != a.digest {
			a.err = fmt.Errorf("%v %v duplicate of request %d answered differently", reqs[i].opts.Tier, reqs[i].opts.Variant, d)
		}
	}
}

// saturatePlanRate is how many requests per second of --seconds the
// saturation measurement plans; the loop stops early if it sends them all.
const saturatePlanRate = 2000

// runSaturate measures the serving path's saturation throughput on the
// serve-oneshot mix: the requests the workload would plan from cfg.seed,
// sent back to back over the same NumCPU connections for cfg.seconds, every
// answer checked. It prints one JSON line; serveSaturation records what it
// read on the host the constants were set on.
func runSaturate(ctx context.Context, cfg runConfig) error {
	conns := runtime.NumCPU()
	reqs, err := planServe(cfg.seed, saturatePlanRate*cfg.seconds)
	if err != nil {
		return err
	}
	v, err := startServer(conns)
	if err != nil {
		return err
	}
	defer v.close()
	answers, elapsed := closedLoop(ctx, v, reqs, conns, time.Now().Add(time.Duration(cfg.seconds)*time.Second))
	checkAnswers(answers, reqs)
	o := newOutcome()
	var lat []float64
	for i, a := range answers {
		if a.err != nil {
			o.fail(a.err, "request %d", i)
			continue
		}
		lat = append(lat, ms(a.latency))
	}
	if len(o.mismatches) > 0 {
		return fmt.Errorf("%d mismatches, the first: %s", len(o.mismatches), o.mismatches[0])
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"seed":             cfg.seed,
		"connections":      conns,
		"sent":             len(answers),
		"failures":         o.failures,
		"seconds":          elapsed.Seconds(),
		"throughput_per_s": float64(len(lat)) / elapsed.Seconds(),
		"p50_ms":           median(lat),
		"p90_ms":           quantile(lat, 0.9),
	})
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func decodeSolve(status int, raw []byte, err error) (*ccsched.Result, error) {
	if err := refused(status, raw, err); err != nil {
		return nil, err
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	if resp.Status != server.StatusDone {
		return nil, &opFailure{kind: "status " + string(resp.Status), msg: resp.Error}
	}
	if resp.Result == nil {
		return nil, errors.New("done without a result")
	}
	if resp.Result.Degraded {
		return nil, &opFailure{kind: "degraded", msg: "degraded answer"}
	}
	return resp.Result, nil
}

// opFailure is an operation that brought back no full answer: a transport
// error, a refusal or error status, or a degraded answer. It counts in
// failed and lowers ok_share. It is not a mismatch, which is a check
// failing on an answer that did come back and makes the run incorrect.
type opFailure struct{ kind, msg string }

func (f *opFailure) Error() string { return f.kind + ": " + f.msg }

// refused turns a transport error or a status other than 200 into an
// *opFailure.
func refused(status int, raw []byte, err error) error {
	if err != nil {
		return &opFailure{kind: "transport", msg: err.Error()}
	}
	if status != http.StatusOK {
		return &opFailure{kind: fmt.Sprintf("http %d", status), msg: string(bytes.TrimSpace(raw))}
	}
	return nil
}

// serveFixtureLayers feeds the first serveFixtures PTAS requests (and as
// many constant-factor ones) of the run to each layer in-process.
func serveFixtureLayers(ctx context.Context, reqs []serveReq, out map[string]float64) error {
	var ls layerSample
	var nPTAS, nApprox int
	for _, r := range reqs {
		if r.dupOf >= 0 {
			continue
		}
		if r.opts.Tier == ccsched.TierPTAS && nPTAS < serveFixtures {
			nPTAS++
			if err := ls.probeSolver(ctx, r.in, r.opts.Epsilon); err != nil {
				return err
			}
			if err := ls.probePTAS(ctx, r.in, r.opts); err != nil {
				return err
			}
			if err := ls.probeSession(ctx, r.in, r.opts, 5, int64(nPTAS)); err != nil {
				return err
			}
			if err := ls.probeLadder(ctx, r.in, r.opts); err != nil {
				return err
			}
		}
		if r.opts.Tier == ccsched.TierApprox && nApprox < serveFixtures {
			nApprox++
			if err := ls.probeApprox(r.in, r.opts.Variant); err != nil {
				return err
			}
		}
	}
	ls.metrics(out)
	return nil
}
