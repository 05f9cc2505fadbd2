package nfold

import (
	"fmt"
	"math/rand"
	"testing"
)

// structuredNFold builds a random N-fold whose bricks carry every move kind
// the enumeration knows: plain columns, slack columns (±1 in one global row,
// absent from B) that yield slack-completed moves, and B-parallel column
// pairs that yield kernel swaps. Each brick gets its own blocks, so the
// problem has n distinct brick shapes.
func structuredNFold(rng *rand.Rand, n, t int) *Problem {
	const r, s = 3, 2
	p := &Problem{N: n, R: r, S: s, T: t + r, GlobalRHS: make([]int64, r)}
	for i := 0; i < n; i++ {
		a := make([][]int64, r)
		for k := range a {
			a[k] = make([]int64, p.T)
			for j := 0; j < t; j++ {
				a[k][j] = int64(rng.Intn(9) - 4)
			}
			a[k][t+k] = int64(1 - 2*rng.Intn(2)) // the slack of row k
		}
		b := make([][]int64, s)
		for k := range b {
			b[k] = make([]int64, p.T)
			for j := 0; j < t; j++ {
				b[k][j] = int64(rng.Intn(5) - 2)
			}
		}
		// Plant parallel B-columns: column j+1 is a multiple of column j.
		for j := 0; j+1 < t; j += 3 {
			f := int64(1 + rng.Intn(3))
			for k := range b {
				b[k][j+1] = f * b[k][j]
			}
		}
		p.A = append(p.A, a)
		p.B = append(p.B, b)
		p.LocalRHS = append(p.LocalRHS, make([]int64, s))
		p.Lower = append(p.Lower, make([]int64, p.T))
		p.Upper = append(p.Upper, make([]int64, p.T))
		p.Obj = append(p.Obj, make([]int64, p.T))
	}
	return p
}

// TestSlabEffectsMatchDense recomputes A_i·g and B_i·g densely for every
// move in every slab and compares them with the slab's stored effects. It
// also pins the slab's layout invariants: consecutive offsets, ascending
// nonzero effect rows, and moves in ± pairs.
func TestSlabEffectsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probs := map[string]*Problem{
		"slack":  slackProblem(),
		"shared": buildSharedBlockProblem(3),
	}
	for k := 0; k < 4; k++ {
		probs[fmt.Sprintf("random%d", k)] = randomNFold(rng, 3, false)
		probs[fmt.Sprintf("structured%d", k)] = structuredNFold(rng, 2, 5+3*k)
	}
	opt := (*AugmentOptions)(nil).defaults()
	for name, p := range probs {
		slabs := enumerateMoves(p, opt, nil)
		for i, s := range slabs {
			checkSlab(t, fmt.Sprintf("%s brick %d", name, i), p, i, s)
		}
	}
	// The structured fixture must exercise every move kind: a slack
	// completion touches a slack column (index ≥ t) beside its structural
	// one, and a kernel swap pairs two structural columns.
	p := probs["structured3"]
	t0 := p.T - p.R
	s := enumerateMoves(p, opt, nil)[0]
	completions, swaps := 0, 0
	for m := 2 * p.T; m < s.numMoves(); m++ {
		cols := s.cols[s.off[m]:s.off[m+1]]
		switch {
		case int(cols[0]) < t0 && int(cols[len(cols)-1]) >= t0:
			completions++
		case len(cols) == 2 && int(cols[1]) < t0:
			swaps++
		}
	}
	if completions == 0 || swaps == 0 {
		t.Fatalf("structured fixture has %d slack completions and %d kernel swaps; want both", completions, swaps)
	}
}

func checkSlab(t *testing.T, where string, p *Problem, i int, s *moveSlab) {
	t.Helper()
	nm := s.numMoves()
	if nm%2 != 0 || len(s.goff) != nm+1 || len(s.loff) != nm+1 {
		t.Fatalf("%s: %d moves with %d/%d effect offsets", where, nm, len(s.goff), len(s.loff))
	}
	if s.off[0] != 0 || s.goff[0] != 0 || s.loff[0] != 0 ||
		int(s.off[nm]) != len(s.cols) || int(s.goff[nm]) != len(s.gidx) || int(s.loff[nm]) != len(s.lidx) {
		t.Fatalf("%s: offsets do not span the slab", where)
	}
	for m := 0; m < nm; m++ {
		lo, hi := s.off[m], s.off[m+1]
		if hi <= lo {
			t.Fatalf("%s move %d: empty", where, m)
		}
		if m%2 == 1 {
			plo := s.off[m-1]
			if hi-lo != lo-plo {
				t.Fatalf("%s move %d: support differs from its partner", where, m)
			}
			for x := int32(0); x < hi-lo; x++ {
				if s.cols[lo+x] != s.cols[plo+x] || s.coefs[lo+x] != -s.coefs[plo+x] {
					t.Fatalf("%s move %d is not the inverse of move %d", where, m, m-1)
				}
			}
		}
		dense := func(block [][]int64) []int64 {
			out := make([]int64, len(block))
			for k, row := range block {
				for x := lo; x < hi; x++ {
					out[k] += row[s.cols[x]] * s.coefs[x]
				}
			}
			return out
		}
		compareEffect(t, fmt.Sprintf("%s move %d global", where, m), dense(p.A[i]), s.gidx[s.goff[m]:s.goff[m+1]], s.gval[s.goff[m]:s.goff[m+1]])
		compareEffect(t, fmt.Sprintf("%s move %d local", where, m), dense(p.B[i]), s.lidx[s.loff[m]:s.loff[m+1]], s.lval[s.loff[m]:s.loff[m+1]])
	}
}

func compareEffect(t *testing.T, where string, want []int64, idx []int32, val []int64) {
	t.Helper()
	got := make([]int64, len(want))
	for x, k := range idx {
		if x > 0 && idx[x-1] >= k {
			t.Fatalf("%s: rows not ascending: %v", where, idx)
		}
		if val[x] == 0 {
			t.Fatalf("%s: stored zero at row %d", where, k)
		}
		got[k] = val[x]
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: row %d = %d, dense recomputation gives %d", where, k, got[k], want[k])
		}
	}
}

// TestEnumerateMovesAllocsPerShape pins that move enumeration costs a
// constant number of allocations per distinct brick shape, independent of
// how many moves and nonzeros each shape has.
func TestEnumerateMovesAllocsPerShape(t *testing.T) {
	opt := (*AugmentOptions)(nil).defaults()
	allocs := func(shapes, cols int) float64 {
		p := structuredNFold(rand.New(rand.NewSource(3)), shapes, cols)
		return testing.AllocsPerRun(5, func() { enumerateMoves(p, opt, nil) })
	}
	const perShape = 8
	for shapes := 1; shapes <= 4; shapes++ {
		small, large := allocs(shapes, 4), allocs(shapes, 40)
		if small != large {
			t.Errorf("%d shapes: %v allocations with 4 columns but %v with 40; want independent of the move count", shapes, small, large)
		}
		if limit := float64(4 + perShape*shapes); large > limit {
			t.Errorf("%d shapes: %v allocations, want at most %v", shapes, large, limit)
		}
	}
}
