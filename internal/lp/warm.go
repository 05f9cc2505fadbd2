package lp

// Warm starts. A branch-and-bound child differs from its parent by a single
// tightened variable bound, so the parent's optimal basis is one or two dual
// pivots away from deciding the child — while a cold solve re-runs a full
// Phase-1/Phase-2 simplex from the artificial basis. The catch is
// determinism: a warm solve that *returned* a different optimal vertex than
// the cold solve would steer branch-and-bound down a different tree and
// change which schedule the PTAS ultimately emits. The restore below is
// therefore verdict-only: starting from a captured basis it runs a bounded
// dual simplex that either proves the child's bounds infeasible (pruning the
// node without any cold work — the common case for the losing side of a
// branch) or abandons the attempt, in which case the ordinary cold solve
// runs and returns exactly what it always returned. Warm-started and cold
// pipelines thus make identical decisions everywhere, which the PTAS parity
// tests check end to end.
//
// The restore is only attempted for identically-zero objectives (the PTAS's
// feasibility LPs): with zero costs every basis is dual feasible, so the
// dual simplex needs no ratio test and its infeasibility certificate — a
// violated basic bound whose row offers no sign-compatible entering column —
// is the textbook Farkas argument.

// Basis is a snapshot of a simplex basis: the basic column set, the resting
// status of every nonbasic column, and the artificial column signs chosen by
// the solve that produced it. Capture one with Prepared.CaptureBasis after a
// solve and pass it to SolveBounds on a related problem (same row and column
// counts) to enable the warm restore. Restoring a Basis never mutates it, so
// one is safe to share across goroutines; only CaptureBasisInto overwrites
// one, at its owner's request.
type Basis struct {
	cols     []int
	status   []varStatus
	artSign  []float64
	m, ncols int
	// liveID links the snapshot to the solve that produced it; the owning
	// Prepared remembers its most recent capture (lastCaptured) instead of
	// the Basis pointing back at the Prepared, so a long-lived Basis (the
	// cross-probe root hint) never pins a released solver or its problem.
	liveID uint64
}

// CaptureBasis snapshots the terminal basis of the most recent successful
// SolveBounds on this Prepared. It returns nil if the last solve did not end
// at an optimal basis (or the scratch has since been disturbed), so callers
// can pass the result straight through as an optional warm hint.
func (pr *Prepared) CaptureBasis() *Basis { return pr.CaptureBasisInto(nil) }

// CaptureBasisInto is CaptureBasis writing into dst's storage when dst has
// this problem's shape (see NewBases), so a caller that recycles snapshots
// stops allocating one per capture. It returns the snapshot (dst itself, or
// a fresh Basis when dst is nil or mis-shaped), or nil with dst untouched
// when there is nothing to capture. The caller must own dst outright:
// overwriting a Basis that a pending solve still holds as its warm hint
// would restore the wrong basis.
func (pr *Prepared) CaptureBasisInto(dst *Basis) *Basis {
	if pr.released || pr.liveID == 0 {
		return nil
	}
	st := &pr.st
	b := dst
	if b == nil || len(b.cols) != pr.m || len(b.status) != pr.ncols {
		b = &Basis{
			cols:    make([]int, pr.m),
			status:  make([]varStatus, pr.ncols),
			artSign: make([]float64, pr.m),
		}
	}
	b.m, b.ncols = pr.m, pr.ncols
	copy(b.cols, st.basis)
	copy(b.status, st.status)
	for i := 0; i < pr.m; i++ {
		b.artSign[i] = st.cols[pr.n+pr.m+i].val[0]
	}
	b.liveID = pr.liveID
	pr.lastCaptured = b
	return b
}

// NewBases returns k snapshots shaped for this Prepared's problem, for a
// caller that recycles them through CaptureBasisInto. They share storage
// carved from a constant number of allocations, so refilling a free list in
// doubling batches costs allocations logarithmic in the number of snapshots
// ever live at once. Until captured into, a snapshot has no shape, so no
// warm restore accepts it.
func (pr *Prepared) NewBases(k int) []*Basis {
	m, nc := pr.m, pr.ncols
	bs := make([]Basis, k)
	out := make([]*Basis, k)
	cols := make([]int, k*m)
	status := make([]varStatus, k*nc)
	art := make([]float64, k*m)
	for i := range bs {
		bs[i] = Basis{
			cols:    cols[i*m : (i+1)*m : (i+1)*m],
			status:  status[i*nc : (i+1)*nc : (i+1)*nc],
			artSign: art[i*m : (i+1)*m : (i+1)*m],
		}
		out[i] = &bs[i]
	}
	return out
}

// maxRestorePivots caps the dual restore. A restore pivot is not cheap: it
// prices every nonbasic column against a row of B⁻¹ (O(nnz)) and updates the
// basis inverse with an O(m²) eta step, and a restore that cannot take the
// live fast path first refactors the basis with an O(m³) Gauss–Jordan
// elimination. On the PTAS deck the restore is about a quarter of a
// branching cell's CPU. An attempt that has not certified infeasibility
// after this many pivots is unlikely to beat the cold solve it would have to
// fall back to anyway. 64 keeps >95% of observed certificates on the PTAS
// workloads while bounding the waste on feasible children.
const maxRestorePivots = 64

// tryWarmInfeasible runs the verdict-only dual-simplex restore described in
// the file comment. It returns (true, pivots) only when the current bounds
// are proven infeasible; any other outcome — primal feasibility reached,
// pivot budget exhausted, singular refactorization — returns false and the
// caller falls through to the cold solve. Bounds and b must already be set.
//
// rc, when non-nil, memoizes the restored start state across sibling solves
// (see SolveBatch): the first restore from warm captures the post-refactor
// basis inverse into rc, and later calls with the same warm copy it back in
// O(m²) instead of refactoring in O(m³). Refactorization is a deterministic
// function of the basis columns, so the copied inverse is bit-identical to
// the one a fresh refactor would build — and the restore stays verdict-only
// regardless, so caching can never change what any solve returns.
func (pr *Prepared) tryWarmInfeasible(warm *Basis, rc *restoreCache) (bool, int) {
	st := &pr.st
	m, n := pr.m, pr.n
	// Artificials stay pinned at zero (the captured basis postdates Phase 1)
	// and keep the signs they had when the basis was captured, so the basis
	// matrix is reproduced exactly.
	for i := 0; i < m; i++ {
		j := n + m + i
		st.lo[j], st.up[j] = 0, 0
		st.cols[j].val[0] = warm.artSign[i]
	}
	switch {
	case rc != nil && rc.valid:
		// Sibling fast path: a previous solve in the batch already restored
		// this warm basis; copy its start state instead of refactoring. The
		// basic values still depend on this solve's bounds, so they are
		// always recomputed.
		pr.liveID = 0
		copy(st.status, rc.status)
		copy(st.basis, rc.basis)
		for i := 0; i < m; i++ {
			copy(st.binv[i], rc.binv[i*m:(i+1)*m])
		}
		st.recomputeXB()
	case warm == pr.lastCaptured && warm.liveID == pr.liveID && pr.liveID != 0:
		// Live fast path: st still holds the captured basis, statuses and
		// basis inverse (depth-first search explores the first child while
		// its parent's state is still resident). Only the basic values need
		// refreshing under the new bounds.
		pr.liveID = 0
		st.recomputeXB()
		if rc != nil {
			rc.capture(st)
		}
	default:
		pr.liveID = 0
		copy(st.status, warm.status)
		copy(st.basis, warm.cols)
		if err := st.refactor(); err != nil {
			return false, 0 // singular under these columns: no usable start
		}
		if rc != nil {
			rc.capture(st)
		}
	}
	pivots := 0
	for ; pivots < maxRestorePivots; pivots++ {
		if st.done != nil && pivots%8 == 0 {
			select {
			case <-st.done:
				st.interrupted = true
				return false, pivots
			default:
			}
		}
		// Most-violated basic bound picks the leaving row.
		r, toLower := -1, false
		worst := feasTol
		for k := 0; k < m; k++ {
			bk := st.basis[k]
			if v := st.lo[bk] - st.xb[k]; v > worst {
				r, toLower, worst = k, true, v
			}
			if v := st.xb[k] - st.up[bk]; v > worst {
				r, toLower, worst = k, false, v
			}
		}
		if r < 0 {
			return false, pivots // primal feasible: nothing to prove
		}
		// Row r of B^{-1}A decides which nonbasic columns can repair the
		// violation. xb[r] must increase when below its lower bound; moving
		// nonbasic j by t changes xb[r] by −t·α_j, and t is sign-constrained
		// by j's resting bound.
		rho := st.binv[r]
		enter := -1
		bestMag := pivotTol
		for j := 0; j < st.ncols; j++ {
			switch st.status[j] {
			case inBasis:
				continue
			case atLower, atUpper, atFree:
			}
			if st.lo[j] == st.up[j] {
				continue // fixed: cannot move
			}
			col := st.cols[j]
			alpha := 0.0
			for k, i := range col.idx {
				alpha += rho[i] * col.val[k]
			}
			mag := alpha
			if mag < 0 {
				mag = -mag
			}
			if mag <= pivotTol {
				continue
			}
			ok := false
			switch st.status[j] {
			case atLower: // t ≥ 0
				ok = (toLower && alpha < 0) || (!toLower && alpha > 0)
			case atUpper: // t ≤ 0
				ok = (toLower && alpha > 0) || (!toLower && alpha < 0)
			case atFree: // either direction
				ok = true
			}
			if ok && mag > bestMag {
				bestMag, enter = mag, j
			}
		}
		if enter < 0 {
			// No column can move xb[r] toward its bound: every feasible
			// point violates it at least as much as the current basis does.
			return true, pivots
		}
		// The leaving variable exits at the bound it violated.
		target := st.up[st.basis[r]]
		leaveAt := atUpper
		if toLower {
			target = st.lo[st.basis[r]]
			leaveAt = atLower
		}
		// Full entering direction for the eta update and the O(m)
		// incremental move of the basic values.
		w := st.w
		colE := st.cols[enter]
		for i := 0; i < m; i++ {
			wi := 0.0
			row := st.binv[i]
			for k, ci := range colE.idx {
				wi += row[ci] * colE.val[k]
			}
			w[i] = wi
		}
		theta := (st.xb[r] - target) / w[r]
		enterVal := st.nonbasicValue(enter) + theta
		for k := 0; k < m; k++ {
			st.xb[k] -= theta * w[k]
		}
		leaving := st.basis[r]
		st.status[leaving] = leaveAt
		st.status[enter] = inBasis
		st.basis[r] = enter
		st.pivotBinv(r, w)
		st.xb[r] = enterVal
	}
	return false, pivots
}
