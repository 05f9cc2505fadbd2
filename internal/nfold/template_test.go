package nfold

import (
	"sync"
	"testing"
)

// buildSharedBlockProblem models what the PTAS builders now emit: bricks
// aliasing the same block backing arrays.
func buildSharedBlockProblem(n int) *Problem {
	a := [][]int64{{1, 1, 0}, {0, 1, 1}}
	b := [][]int64{{1, -1, 2}}
	p := NewUniform(n, a, b)
	for i := 0; i < n; i++ {
		for j := 0; j < p.T; j++ {
			p.Upper[i][j] = 4
		}
		p.LocalRHS[i][0] = 2
	}
	p.GlobalRHS[0] = int64(2 * n)
	p.GlobalRHS[1] = int64(2 * n)
	return p
}

// TestTemplateSharedSolvesIdentical pins that sharing a Template across a
// family of solves (the augment move cache) never changes any result:
// status, solution and engine must match the template-free solve bit for
// bit.
func TestTemplateSharedSolvesIdentical(t *testing.T) {
	tmpl := NewTemplate()
	for _, n := range []int{2, 5, 9} {
		p := buildSharedBlockProblem(n)
		plain, err := Solve(p, &Options{FirstFeasible: true})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Solve(p, &Options{FirstFeasible: true, Template: tmpl})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Status != shared.Status || plain.Engine != shared.Engine || plain.Nodes != shared.Nodes {
			t.Fatalf("n=%d: template solve (%v/%v/%d) != plain (%v/%v/%d)",
				n, shared.Status, shared.Engine, shared.Nodes, plain.Status, plain.Engine, plain.Nodes)
		}
		if (plain.X == nil) != (shared.X == nil) {
			t.Fatalf("n=%d: solution presence diverged", n)
		}
		for i := range plain.X {
			for j := range plain.X[i] {
				if plain.X[i][j] != shared.X[i][j] {
					t.Fatalf("n=%d: x[%d][%d] = %d != %d", n, i, j, shared.X[i][j], plain.X[i][j])
				}
			}
		}
	}
}

// TestMoveCacheSharesAcrossBricks verifies the pointer-keyed move cache:
// bricks aliasing one block pair must resolve to the same enumerated move
// set both within a solve and across solves sharing a Template.
func TestMoveCacheSharesAcrossBricks(t *testing.T) {
	p := buildSharedBlockProblem(6)
	opt := (&AugmentOptions{}).defaults()
	tmpl := NewTemplate()
	bm1 := enumerateMoves(p, opt, tmpl)
	for i := 1; i < p.N; i++ {
		if bm1[i] != bm1[0] {
			t.Fatalf("brick %d did not share brick 0's move set despite shared blocks", i)
		}
	}
	bm2 := enumerateMoves(p, opt, tmpl)
	if bm2[0] != bm1[0] {
		t.Fatal("second enumeration with the same template re-computed the move set")
	}
	// Without a template, a fresh call still shares within the solve.
	bm3 := enumerateMoves(p, opt, nil)
	for i := 1; i < p.N; i++ {
		if bm3[i] != bm3[0] {
			t.Fatalf("template-free enumeration lost within-solve sharing at brick %d", i)
		}
	}
}

// TestTemplateConcurrentEnumerationShares races two enumerations of the
// same brick shape on one Template: both must come back with the one slab
// the Template keeps, not each with its own copy.
func TestTemplateConcurrentEnumerationShares(t *testing.T) {
	opt := (&AugmentOptions{}).defaults()
	for round := 0; round < 50; round++ {
		p := buildSharedBlockProblem(2)
		tmpl := NewTemplate()
		var got [2]*moveSlab
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[w] = enumerateMoves(p, opt, tmpl)[0]
			}()
		}
		close(start)
		wg.Wait()
		if got[0] != got[1] {
			t.Fatalf("round %d: concurrent enumerations on one Template returned different move sets", round)
		}
	}
}
