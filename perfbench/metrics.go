package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct {
	name string
	unit string
}

// endToEnd are the gated metrics a user of the system sees. Every
// workload reports every one of them, each in that workload's own terms
// (README.md has the table). Raw latencies (deck_s, serve_p50_ms, ...) go
// to the detail record instead: on a shared host they drift too far
// between runs to gate. They must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_share", "share"},
	{"slo_share", "share"},
	{"ratio_gmean", "ratio"},
	{"scheme_share", "share"},
	{"mem_mb", "MB"},
}

// perLayer are the traced pass's metrics, timed from this package around
// calls into each layer's public functions (see layers.go). They must
// match BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"lp.pivots_per_solve", "count"},
	{"lp.us_per_pivot", "us"},
	{"lp.pivots_per_node", "count"},
	{"ilp.nodes_per_probe", "count"},
	{"ilp.us_per_node", "us"},
	{"ilp.warm_hit_share", "share"},
	{"ilp.nodelimit_share", "share"},
	{"nfold.build_us", "us"},
	{"nfold.augment_ms", "ms"},
	{"nfold.augment_steps", "count"},
	{"nfold.augment_decided_share", "share"},
	{"ptas.solve_ms", "ms"},
	{"ptas.probes_per_solve", "count"},
	{"ptas.fallback_share", "share"},
	{"ptas.approx_min_share", "share"},
	{"ptas.cache_hit_share", "share"},
	{"ptas.cert_hits_per_solve", "count"},
	{"approx.solve_us", "us"},
	{"core.lower_bound_us", "us"},
	{"core.validate_us", "us"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_tail_ms", "ms"},
	{"server.solve_p50_ms", "ms"},
	{"server.coalesced_share", "share"},
	{"server.result_cache_hit_share", "share"},
	{"server.rejected_share", "share"},
	{"session.resolve_ms", "ms"},
	{"session.cache_hit_share", "share"},
	{"session.cert_hits_per_resolve", "count"},
	{"session.warm_hits_per_resolve", "count"},
	{"anytime.rung_ms", "ms"},
	{"inprogram.bb_nodes_share", "share"},
	{"inprogram.template_build_share", "share"},
	{"inprogram.probe_share", "share"},
	{"inprogram.nfold_augment_share", "share"},
	{"trace.overhead_share", "share"},
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// spread is the latency distribution recorded beside the limits derived
// from it: the nearest-rank percentiles 10, 25, 50, 75, 90, 95 and 99.
func spread(xs []float64) map[string]float64 {
	out := map[string]float64{}
	for _, p := range []int{10, 25, 50, 75, 90, 95, 99} {
		out[fmt.Sprintf("p%d", p)] = quantile(xs, float64(p)/100)
	}
	return out
}

// tail is the highest percentile of xs with at least ten samples beyond
// it: the value, the percentile it sits at, and the sample count. With
// eleven samples or fewer it is the smallest sample.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(len(s)), Samples: len(s)}
}

// gmean is the geometric mean of positive xs (0 for none).
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocatedBytes is the cumulative count of bytes the Go runtime has
// allocated in this process: the difference across a serial computation is
// its allocation volume, which unlike any heap-size reading does not depend
// on when the collector happened to run.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

const liveHeapMetric = "/gc/heap/live:bytes"

// retainedHeapMB is the live heap after a forced collection: the memory
// an in-process server keeps once a workload's load has passed.
func retainedHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// cpuTicks reads the host-wide CPU counters from /proc/stat: ticks
// stolen by the hypervisor, and all ticks.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// env is recorded with every result so that figures from different hosts
// and commits are never compared blind.
type env struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Seed         int64   `json:"seed"`
	Seconds      int     `json:"seconds"`
	Traced       bool    `json:"traced"`
	CalibrateMs  float64 `json:"calibrate_ms"`
	StealShare   float64 `json:"steal_share"`
}

func recordEnv(cfg runConfig) (*env, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return nil, fmt.Errorf("digesting the checkout's source: %w", err)
	}
	return &env{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceDigest: digest,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Traced:       cfg.trace,
		CalibrateMs:  calibrate(),
	}, nil
}

// calibrate times a fixed integer loop, so that runs on hosts of
// different speed (or one host under different load) can be told apart.
func calibrate() float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink = x
		best = math.Min(best, ms(time.Since(start)))
	}
	return best
}

var sink uint64

// sourceDigest hashes go.mod and every .go file of the checkout (the
// build directory excluded), which identifies the code measured where no
// git metadata exists.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// gitCommit reads HEAD from .git without running git; checkouts without
// git metadata report "unknown" and rely on the source digest.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
