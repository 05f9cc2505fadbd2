package nfold

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"ccsched/internal/faultinject"
	"ccsched/internal/panicsafe"
)

// The augmentation engine follows the shape of the theoretical N-fold
// algorithms: start from a trivially box-feasible point, then repeatedly
// apply integral moves with bounded brick support, scaled by powers of two
// (the "Graver-best step" schedule). Instead of explicit artificial
// variables, it tracks the residuals of all constraint rows and descends
// their L1 norm — reaching zero residual is exactly phase-1 feasibility.
//
// The move set restricts Graver elements to:
//
//   - singles: ±e_j within one brick,
//   - kernel swaps: support-2 moves a·e_j − b·e_k within one brick with
//     B(a·e_j − b·e_k) = 0 (parallel B-columns), the moves that reshuffle
//     configurations without disturbing local rows,
//   - pairs: two moves in different bricks applied together when neither
//     helps alone.
//
// Every accepted move strictly decreases the nonnegative integral residual
// norm, so the descent terminates. It may stall above zero — the engine is
// a documented heuristic; Solve verifies its output and falls back to the
// exact branch-and-bound engine on a stall (measured in experiment E8).

// AugmentOptions tunes the augmentation engine.
type AugmentOptions struct {
	// MaxCoeff bounds kernel-swap coefficients (default 8).
	MaxCoeff int64
	// MaxSwapsPerBrick caps the enumerated kernel swaps (default 4000).
	MaxSwapsPerBrick int
	// MaxSteps caps accepted augmentation steps (default 200000).
	MaxSteps int
}

func (o *AugmentOptions) defaults() AugmentOptions {
	out := AugmentOptions{MaxCoeff: 8, MaxSwapsPerBrick: 4000, MaxSteps: 200000}
	if o == nil {
		return out
	}
	if o.MaxCoeff > 0 {
		out.MaxCoeff = o.MaxCoeff
	}
	if o.MaxSwapsPerBrick > 0 {
		out.MaxSwapsPerBrick = o.MaxSwapsPerBrick
	}
	if o.MaxSteps > 0 {
		out.MaxSteps = o.MaxSteps
	}
	return out
}

// moveSlab is one brick shape's move set with its constraint effects, stored
// flat. Move m adds coefs[off[m]:off[m+1]] to the columns cols[off[m]:off[m+1]];
// its global effect A_i·g is gval at rows gidx over [goff[m], goff[m+1]) and
// its local effect B_i·g is lval at rows lidx over [loff[m], loff[m+1]), rows
// ascending. Moves come in ± pairs (indices 2k and 2k+1). A slab costs three
// allocations however many moves it holds, and is immutable once built.
type moveSlab struct {
	off, goff, loff   []int32
	cols, gidx, lidx  []int32
	coefs, gval, lval []int64
}

func (s *moveSlab) numMoves() int { return len(s.off) - 1 }

// augState is the engine's working state.
type augState struct {
	p     *Problem
	x     [][]int64
	gres  []int64   // global residuals: GlobalRHS − Σ A_i x_i
	lres  [][]int64 // local residuals per brick
	bm    []*moveSlab
	steps int
	// ctx is polled at descent-iteration boundaries and inside the long
	// per-brick scans, so cancellation latency is bounded by one brick's
	// move evaluation rather than a whole descent iteration.
	ctx context.Context
	// par is the requested scan parallelism (≤ 1 scans serially);
	// scanWorkers records the largest worker count actually engaged.
	par         int
	scanWorkers int
	// scanErr is a fault injected at the nfold.scan point; the descent
	// stops at the next iteration boundary and solveAugment surfaces it.
	scanErr error
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// enumerateMoves builds the per-brick move sets with their effects.
// Bricks sharing block backing arrays share one slab; with a Template, the
// sharing extends across every solve of the family (the PTAS guess probes
// reuse block arrays across guesses, so a whole search enumerates each
// distinct brick shape exactly once).
func enumerateMoves(p *Problem, opt AugmentOptions, tmpl *Template) []*moveSlab {
	cache := make(map[brickCacheKey]*moveSlab)
	out := make([]*moveSlab, p.N)
	for i := 0; i < p.N; i++ {
		ck := cacheKey(p, i, opt)
		s := cache[ck]
		if s == nil && tmpl != nil {
			if v, ok := tmpl.moves.Load(ck); ok {
				s = v.(*moveSlab)
			}
		}
		if s == nil {
			s = buildSlab(p, i, opt)
			if tmpl != nil {
				// Concurrent probes may race to build the same shape; the
				// first slab published wins and every probe adopts it, so
				// the family keeps one copy.
				v, _ := tmpl.moves.LoadOrStore(ck, s)
				s = v.(*moveSlab)
			}
		}
		cache[ck] = s
		out[i] = s
	}
	return out
}

// slabEnumerator enumerates brick i's moves. buildSlab runs the enumeration
// twice: a sizing pass (s nil) that only counts entries, then a filling pass
// into a slab allocated at exactly the counted size.
type slabEnumerator struct {
	p        *Problem
	i        int
	opt      AugmentOptions
	slackFor []int   // per column, the global row it is the slack of, or -1
	rowCol   []int   // per global row, its first slack column, or -1
	bcol     []int64 // B_i column-major: column j is bcol[j*S : (j+1)*S]
	cols     []int32 // scratch for the move being emitted
	coefs    []int64

	s              *moveSlab
	nm, nc, ng, nl int
}

func buildSlab(p *Problem, i int, opt AugmentOptions) *moveSlab {
	sb := slabEnumerator{
		p: p, i: i, opt: opt,
		slackFor: findSlackColumns(p, i),
		rowCol:   make([]int, p.R),
		bcol:     make([]int64, p.T*p.S),
		cols:     make([]int32, p.R+2),
		coefs:    make([]int64, p.R+2),
	}
	for k := range sb.rowCol {
		sb.rowCol[k] = -1
	}
	for j, r := range sb.slackFor {
		if r >= 0 && sb.rowCol[r] == -1 {
			sb.rowCol[r] = j
		}
	}
	for j := 0; j < p.T; j++ {
		for r := 0; r < p.S; r++ {
			sb.bcol[j*p.S+r] = p.B[i][r][j]
		}
	}
	sb.walk()
	nm, nc, ng, nl := sb.nm, sb.nc, sb.ng, sb.nl
	i32 := make([]int32, 3*(nm+1)+nc+ng+nl)
	i64 := make([]int64, nc+ng+nl)
	cut32 := func(n int) []int32 {
		out := i32[:n:n]
		i32 = i32[n:]
		return out
	}
	cut64 := func(n int) []int64 {
		out := i64[:n:n]
		i64 = i64[n:]
		return out
	}
	sb.s = &moveSlab{
		off: cut32(nm + 1), goff: cut32(nm + 1), loff: cut32(nm + 1),
		cols: cut32(nc), gidx: cut32(ng), lidx: cut32(nl),
		coefs: cut64(nc), gval: cut64(ng), lval: cut64(nl),
	}
	sb.nm, sb.nc, sb.ng, sb.nl = 0, 0, 0, 0
	sb.walk()
	return sb.s
}

// walk emits the move set in its canonical order: singles, slack-completed
// columns, then kernel swaps, each as a ± pair.
func (sb *slabEnumerator) walk() {
	p, i := sb.p, sb.i
	for j := 0; j < p.T; j++ {
		sb.cols[0], sb.coefs[0] = int32(j), 1
		sb.addPair(1)
	}
	// Slack-completed column moves: configuration ILPs pair structural
	// columns with slack columns via rows like "z + (b−c)x + s = 0"; a unit
	// structural step is only ever useful together with the matching
	// multi-unit slack adjustment, which is a genuine Graver element the
	// support-2 swap enumeration cannot reach (the slack coefficient can be
	// large). For every global row served by a dedicated slack column (±1 in
	// exactly that row, absent from B), complete each structural column's
	// effect on that row.
	for j := 0; j < p.T; j++ {
		if sb.slackFor[j] != -1 {
			continue // j is itself a slack column
		}
		sb.cols[0], sb.coefs[0] = int32(j), 1
		q := 1
		for k := 0; k < p.R; k++ {
			a := p.A[i][k][j]
			if a == 0 {
				continue
			}
			if sc := sb.rowCol[k]; sc >= 0 && sc != j {
				sb.cols[q], sb.coefs[q] = int32(sc), -a*p.A[i][k][sc]
				q++
			}
		}
		if q > 1 {
			sb.addPair(q)
		}
	}
	// Kernel swaps among parallel B-columns.
	swaps := 0
	for j1 := 0; j1 < p.T && swaps < sb.opt.MaxSwapsPerBrick; j1++ {
		for j2 := j1 + 1; j2 < p.T; j2++ {
			a, b, ok := parallelCoeffs(sb.bcol[j1*p.S:(j1+1)*p.S], sb.bcol[j2*p.S:(j2+1)*p.S], sb.opt.MaxCoeff)
			if !ok {
				continue
			}
			sb.cols[0], sb.cols[1] = int32(j1), int32(j2)
			sb.coefs[0], sb.coefs[1] = a, -b
			sb.addPair(2)
			swaps++
			if swaps >= sb.opt.MaxSwapsPerBrick {
				return
			}
		}
	}
}

// addPair emits the move g = (cols[:q], coefs[:q]) and its inverse −g. The
// inverse's effects are g's negated (exactly, even under wraparound), so
// each pair costs one dot product per row.
func (sb *slabEnumerator) addPair(q int) {
	cols, coefs := sb.cols[:q], sb.coefs[:q]
	a, b := sb.p.A[sb.i], sb.p.B[sb.i]
	m, nc, ng, nl := sb.nm, sb.nc, sb.ng, sb.nl
	var dg, dl int
	if s := sb.s; s == nil {
		dg = effect(a, cols, coefs, nil, nil)
		dl = effect(b, cols, coefs, nil, nil)
	} else {
		dg = effect(a, cols, coefs, s.gidx[ng:], s.gval[ng:])
		dl = effect(b, cols, coefs, s.lidx[nl:], s.lval[nl:])
		copy(s.cols[nc:], cols)
		copy(s.coefs[nc:], coefs)
		negate(s.cols[nc+q:], s.coefs[nc+q:], cols, coefs)
		negate(s.gidx[ng+dg:], s.gval[ng+dg:], s.gidx[ng:ng+dg], s.gval[ng:ng+dg])
		negate(s.lidx[nl+dl:], s.lval[nl+dl:], s.lidx[nl:nl+dl], s.lval[nl:nl+dl])
		s.off[m+1], s.off[m+2] = int32(nc+q), int32(nc+2*q)
		s.goff[m+1], s.goff[m+2] = int32(ng+dg), int32(ng+2*dg)
		s.loff[m+1], s.loff[m+2] = int32(nl+dl), int32(nl+2*dl)
	}
	sb.nm, sb.nc, sb.ng, sb.nl = m+2, nc+2*q, ng+2*dg, nl+2*dl
}

// effect computes block·g for the move g = (cols, coefs), writing its
// nonzero rows in ascending order into idx and val (or only counting them
// when idx is nil), and returns their number.
func effect(block [][]int64, cols []int32, coefs []int64, idx []int32, val []int64) int {
	n := 0
	for k, row := range block {
		var dot int64
		for x, j := range cols {
			dot += row[j] * coefs[x]
		}
		if dot != 0 {
			if idx != nil {
				idx[n], val[n] = int32(k), dot
			}
			n++
		}
	}
	return n
}

// negate writes the entries (idx, −val) into dstIdx and dstVal.
func negate(dstIdx []int32, dstVal []int64, idx []int32, val []int64) {
	copy(dstIdx, idx)
	for x, v := range val {
		dstVal[x] = -v
	}
}

// findSlackColumns identifies slack columns of brick i: columns appearing
// in exactly one global row with coefficient ±1 and nowhere else (neither
// other global rows nor local rows). Returns, per column, the served global
// row or -1.
func findSlackColumns(p *Problem, i int) []int {
	out := make([]int, p.T)
	for j := 0; j < p.T; j++ {
		out[j] = -1
		row := -1
		ok := true
		for k := 0; k < p.R && ok; k++ {
			switch v := p.A[i][k][j]; {
			case v == 0:
			case (v == 1 || v == -1) && row == -1:
				row = k
			default:
				ok = false
			}
		}
		for k := 0; k < p.S && ok; k++ {
			if p.B[i][k][j] != 0 {
				ok = false
			}
		}
		if ok && row >= 0 {
			out[j] = row
		}
	}
	return out
}

// brickCacheKey identifies a brick's move set by the identity of its block
// slices (not their first elements: builders may alias individual rows
// between otherwise-different blocks) plus the enumeration knobs, so a key
// stays valid inside a cross-solve Template cache.
type brickCacheKey struct {
	a, b     *[]int64
	t        int
	maxCoeff int64
	maxSwaps int
}

func cacheKey(p *Problem, i int, opt AugmentOptions) brickCacheKey {
	k := brickCacheKey{t: p.T, maxCoeff: opt.MaxCoeff, maxSwaps: opt.MaxSwapsPerBrick}
	if p.R > 0 {
		k.a = &p.A[i][0]
	}
	if p.S > 0 {
		k.b = &p.B[i][0]
	}
	return k
}

// parallelCoeffs finds minimal positive (a,b) with a·u = b·v, if u and v are
// parallel and the coefficients stay within maxCoeff. Zero columns pair with
// coefficients (1,1).
func parallelCoeffs(u, v []int64, maxCoeff int64) (int64, int64, bool) {
	uz, vz := true, true
	for i := range u {
		if u[i] != 0 {
			uz = false
		}
		if v[i] != 0 {
			vz = false
		}
	}
	if uz && vz {
		return 1, 1, true
	}
	if uz || vz {
		return 0, 0, false
	}
	var a, b int64
	for i := range u {
		if u[i] != 0 || v[i] != 0 {
			if u[i] == 0 || v[i] == 0 {
				return 0, 0, false
			}
			g := gcd64(u[i], v[i])
			a, b = v[i]/g, u[i]/g
			break
		}
	}
	if a < 0 {
		a, b = -a, -b
	}
	if a == 0 || b == 0 || a > maxCoeff || abs64(b) > maxCoeff {
		return 0, 0, false
	}
	for i := range u {
		if a*u[i] != b*v[i] {
			return 0, 0, false
		}
	}
	return a, b, true
}

// newAugState clamps zero into the box and computes residuals.
func newAugState(p *Problem, opt AugmentOptions, tmpl *Template) *augState {
	st := &augState{p: p}
	st.x = make([][]int64, p.N)
	for i := 0; i < p.N; i++ {
		st.x[i] = make([]int64, p.T)
		for j := 0; j < p.T; j++ {
			v := int64(0)
			if v < p.Lower[i][j] {
				v = p.Lower[i][j]
			}
			if v > p.Upper[i][j] {
				v = p.Upper[i][j]
			}
			st.x[i][j] = v
		}
	}
	st.gres = make([]int64, p.R)
	copy(st.gres, p.GlobalRHS)
	st.lres = make([][]int64, p.N)
	for i := 0; i < p.N; i++ {
		st.lres[i] = make([]int64, p.S)
		copy(st.lres[i], p.LocalRHS[i])
		for k := 0; k < p.R; k++ {
			row := p.A[i][k]
			for j := 0; j < p.T; j++ {
				if row[j] != 0 && st.x[i][j] != 0 {
					st.gres[k] -= row[j] * st.x[i][j]
				}
			}
		}
		for k := 0; k < p.S; k++ {
			row := p.B[i][k]
			for j := 0; j < p.T; j++ {
				if row[j] != 0 && st.x[i][j] != 0 {
					st.lres[i][k] -= row[j] * st.x[i][j]
				}
			}
		}
	}
	st.bm = enumerateMoves(p, opt, tmpl)
	return st
}

// residualNorm is the phase-1 objective Σ|residual|.
func (st *augState) residualNorm() int64 {
	var total int64
	for _, v := range st.gres {
		total += abs64(v)
	}
	for i := range st.lres {
		for _, v := range st.lres[i] {
			total += abs64(v)
		}
	}
	return total
}

// maxStep returns the largest λ ≥ 0 such that x_i + λ·g stays in the box.
func (st *augState) maxStep(i, mi int) int64 {
	s := st.bm[i]
	lim := int64(1) << 40
	for x := s.off[mi]; x < s.off[mi+1]; x++ {
		j, c := s.cols[x], s.coefs[x]
		if c > 0 {
			if l := (st.p.Upper[i][j] - st.x[i][j]) / c; l < lim {
				lim = l
			}
		} else if c < 0 {
			if l := (st.x[i][j] - st.p.Lower[i][j]) / (-c); l < lim {
				lim = l
			}
		}
	}
	return lim
}

// improvement computes the residual-norm reduction of applying λ·g in brick
// i (positive is better).
func (st *augState) improvement(i, mi int, lambda int64) int64 {
	s := st.bm[i]
	var delta int64
	for x := s.goff[mi]; x < s.goff[mi+1]; x++ {
		old := st.gres[s.gidx[x]]
		delta += abs64(old) - abs64(old-lambda*s.gval[x])
	}
	lres := st.lres[i]
	for x := s.loff[mi]; x < s.loff[mi+1]; x++ {
		old := lres[s.lidx[x]]
		delta += abs64(old) - abs64(old-lambda*s.lval[x])
	}
	return delta
}

// apply commits λ·g in brick i.
func (st *augState) apply(i, mi int, lambda int64) {
	s := st.bm[i]
	for x := s.off[mi]; x < s.off[mi+1]; x++ {
		st.x[i][s.cols[x]] += lambda * s.coefs[x]
	}
	for x := s.goff[mi]; x < s.goff[mi+1]; x++ {
		st.gres[s.gidx[x]] -= lambda * s.gval[x]
	}
	for x := s.loff[mi]; x < s.loff[mi+1]; x++ {
		st.lres[i][s.lidx[x]] -= lambda * s.lval[x]
	}
	st.steps++
}

// scanRes is one brick range's best move under the canonical incumbent
// rule: lexicographically largest (gain, lambda), earliest (brick, move) on
// full ties. brick < 0 means no improving move in the range.
type scanRes struct {
	brick, move  int
	lambda, gain int64
}

// better reports whether cand displaces inc under the incumbent rule the
// sequential scan applies at every (brick, move, λ) it visits. Because the
// rule is a strict comparison, folding per-range winners in ascending range
// order reproduces the full scan's winner exactly.
func (inc *scanRes) better(gain, lambda int64) bool {
	return gain > inc.gain || (gain == inc.gain && gain > 0 && lambda > inc.lambda)
}

// scanRange computes the incumbent over bricks [from, to). The scan reads
// only pre-move state (x, residuals, bounds, move tables), all immutable
// while a scan is in flight, so disjoint ranges may run concurrently.
func (st *augState) scanRange(ctx context.Context, from, to int) scanRes {
	best := scanRes{brick: -1, move: -1}
	for i := from; i < to; i++ {
		if ctx.Err() != nil {
			return best
		}
		for mi, nm := 0, st.bm[i].numMoves(); mi < nm; mi++ {
			lim := st.maxStep(i, mi)
			if lim == 0 {
				continue
			}
			// Graver-best-step schedule: powers of two up to the box
			// limit, plus the limit itself.
			for lambda := int64(1); ; lambda *= 2 {
				if lambda > lim {
					lambda = lim
				}
				if gain := st.improvement(i, mi, lambda); best.better(gain, lambda) {
					best = scanRes{brick: i, move: mi, lambda: lambda, gain: gain}
				}
				if lambda == lim {
					break
				}
			}
		}
	}
	return best
}

// scanBest finds the descent's next move. With par ≥ 2 the bricks are split
// into contiguous ranges scanned concurrently and the per-range winners are
// merged in ascending range order under the same incumbent rule, so the
// chosen (brick, move, λ) is bit-identical to the serial scan's at any
// worker count — worker scheduling can only change timing, never the
// winner. Moves are still applied serially by the caller.
func (st *augState) scanBest(ctx context.Context) scanRes {
	if err := faultinject.Check("nfold.scan"); err != nil {
		st.scanErr = err
		return scanRes{brick: -1, move: -1}
	}
	n := st.p.N
	workers := st.par
	if workers > n {
		workers = n
	}
	if workers < 2 {
		return st.scanRange(ctx, 0, n)
	}
	if workers > st.scanWorkers {
		st.scanWorkers = workers
	}
	results := make([]scanRes, workers)
	var wg sync.WaitGroup
	// A panic on a scan worker goroutine would kill the process; capture the
	// first one and re-raise it on the joining goroutine after wg.Wait(), so
	// it unwinds to the solve boundary like a caller-goroutine panic
	// (Capture's passthrough keeps the worker's original stack and span).
	var panicErr atomic.Pointer[panicsafe.Error]
	for w := 1; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicErr.CompareAndSwap(nil, panicsafe.Capture(v, "brick_scan"))
				}
			}()
			results[w] = st.scanRange(ctx, lo, hi)
		}(w, lo, hi)
	}
	results[0] = st.scanRange(ctx, 0, n/workers)
	wg.Wait()
	if pe := panicErr.Load(); pe != nil {
		panic(pe)
	}
	best := scanRes{brick: -1, move: -1}
	for _, r := range results {
		if r.brick >= 0 && best.better(r.gain, r.lambda) {
			best = r
		}
	}
	return best
}

// descend runs the greedy residual descent until the residual reaches zero,
// no move improves it, or ctx is canceled (the caller translates a canceled
// context into an error, so a partial descent is never mistaken for a
// stall). Returns the final residual norm.
func (st *augState) descend(ctx context.Context, opt AugmentOptions) int64 {
	for st.steps < opt.MaxSteps {
		if ctx.Err() != nil {
			return st.residualNorm()
		}
		if st.residualNorm() == 0 {
			return 0
		}
		best := st.scanBest(ctx)
		if st.scanErr != nil || ctx.Err() != nil {
			return st.residualNorm()
		}
		if best.gain <= 0 {
			if !st.pairStep() {
				return st.residualNorm()
			}
			continue
		}
		st.apply(best.brick, best.move, best.lambda)
	}
	return st.residualNorm()
}

// pairStep looks for two moves (of any supported shape, step 1) whose
// combined effect reduces the residual even though neither helps alone —
// the typical stall is a unit move in one brick repaired by a kernel swap
// in another. Returns true if it applied a pair.
func (st *augState) pairStep() bool {
	type cand struct {
		brick, mi int
		gain      int64
	}
	var cands []cand
	for i := 0; i < st.p.N; i++ {
		for mi, nm := 0, st.bm[i].numMoves(); mi < nm; mi++ {
			if st.maxStep(i, mi) == 0 {
				continue
			}
			cands = append(cands, cand{i, mi, st.improvement(i, mi, 1)})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	const window = 512
	lim := len(cands)
	if lim > window {
		lim = window
	}
	for ai := 0; ai < lim; ai++ {
		if st.ctx != nil && st.ctx.Err() != nil {
			return false
		}
		a := cands[ai]
		gainA := st.improvement(a.brick, a.mi, 1)
		// Tentatively apply a, then search for a repairing partner.
		st.apply(a.brick, a.mi, 1)
		for bi := 0; bi < lim; bi++ {
			if bi == ai {
				continue
			}
			b := cands[bi]
			if st.maxStep(b.brick, b.mi) == 0 {
				continue
			}
			if gainA+st.improvement(b.brick, b.mi, 1) > 0 {
				st.apply(b.brick, b.mi, 1)
				return true
			}
		}
		// Roll back a: the inverse move is its partner in the enumeration
		// (moves come in ± pairs: indices 2k and 2k+1 for singles/swaps).
		st.apply(a.brick, a.mi^1, 1)
		st.steps -= 2 // the tentative apply/rollback should not consume budget
	}
	return false
}

// solveAugment runs the augmentation engine for feasibility (and greedy
// objective descent when Obj is nonzero). Cancellation is polled once per
// descent step; a canceled context surfaces as ctx.Err(). par ≥ 2 scans the
// bricks of each descent iteration concurrently (see scanBest); the chosen
// moves, and therefore the result, are bit-identical at any par.
func (p *Problem) solveAugment(ctx context.Context, opts *AugmentOptions, tmpl *Template, par int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt := opts.defaults()
	st := newAugState(p, opt, tmpl)
	st.ctx = ctx
	st.par = par
	if rest := st.descend(ctx, opt); rest != 0 || st.scanErr != nil {
		if err := st.scanErr; err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Result{Status: Unknown, Engine: EngineAugment, Nodes: st.steps, BrickScanWorkers: st.scanWorkers}, nil
	}
	if err := p.Check(st.x); err != nil {
		return nil, err
	}
	if hasObjective(p) {
		st.objectiveDescend(ctx, opt)
		// A deadline that fires mid objective descent must surface as an
		// error (the SolveCtx contract), not as a silently under-optimized
		// Feasible result whose objective depends on timing.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.Check(st.x); err != nil {
			return nil, err
		}
	}
	return &Result{
		Status:           Feasible,
		X:                st.x,
		Obj:              p.Objective(st.x),
		Engine:           EngineAugment,
		Nodes:            st.steps,
		BrickScanWorkers: st.scanWorkers,
	}, nil
}

func hasObjective(p *Problem) bool {
	for i := range p.Obj {
		for _, v := range p.Obj[i] {
			if v != 0 {
				return true
			}
		}
	}
	return false
}

// objectiveDescend greedily improves the objective with moves that keep all
// residuals at zero. A canceled context stops the descent early; the
// incumbent stays feasible, so the caller can still return it.
func (st *augState) objectiveDescend(ctx context.Context, opt AugmentOptions) {
	p := st.p
	for st.steps < opt.MaxSteps {
		if ctx.Err() != nil {
			return
		}
		improved := false
		for i := 0; i < p.N && !improved; i++ {
			s := st.bm[i]
			for mi, nm := 0, s.numMoves(); mi < nm; mi++ {
				if s.goff[mi] != s.goff[mi+1] || s.loff[mi] != s.loff[mi+1] {
					continue
				}
				var objDelta int64
				for x := s.off[mi]; x < s.off[mi+1]; x++ {
					objDelta += p.Obj[i][s.cols[x]] * s.coefs[x]
				}
				if objDelta >= 0 {
					continue
				}
				lim := st.maxStep(i, mi)
				if lim == 0 {
					continue
				}
				st.apply(i, mi, lim)
				improved = true
				break
			}
		}
		if !improved {
			return
		}
	}
}
