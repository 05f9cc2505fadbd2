package nfold

import (
	"sync"
)

// Template carries solver state that is reusable across a family of related
// N-fold solves — in the PTAS, the probes of one makespan-guess search,
// which differ only in guess-dependent right-hand sides, bounds and a few
// block coefficients. One Template is shared by every (possibly concurrent)
// probe of a search; the cache below is safe for concurrent use and all
// cached values are immutable, so no per-worker cloning is needed.
//
// It caches the augmentation engine's per-brick move sets, keyed by the
// identity of the brick's block arrays. Builders that share block backing
// arrays across bricks (and across guesses — see internal/ptas templates)
// make move enumeration, formerly ~half of a probe's runtime, an
// O(distinct blocks) cost instead of O(bricks × guesses). (Cross-probe
// root-basis reuse was also tried here and removed: see solveBranchBound.)
type Template struct {
	moves sync.Map // brickCacheKey -> *moveSlab
}

// NewTemplate returns an empty template. Pass it via Options.Template to
// every solve in the family that should share it.
func NewTemplate() *Template { return &Template{} }
