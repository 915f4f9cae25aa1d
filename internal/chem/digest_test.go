package chem

import (
	"math"
	"math/rand"
	"testing"

	"execmodels/internal/linalg"
)

// randomDensity returns a seeded random symmetric n×n matrix with
// entries in [-1, 1): a density stand-in with no structure the digest
// could accidentally lean on.
func randomDensity(n int, rng *rand.Rand) *linalg.Matrix {
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 2*rng.Float64() - 1
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return d
}

// digestQuartetPair digests one quartet block through the one-pass
// digest (symmetrized afterwards, as every Fock assembly does) and
// through the 8-permutation reference, into fresh matrices, and returns
// the largest element-wise difference over J and every K.
func digestQuartetPair(shells []Shell, q [4]int, blk []float64, dj *linalg.Matrix, dks []*linalg.Matrix) float64 {
	n := dj.Rows
	fresh := func() (*linalg.Matrix, []*linalg.Matrix) {
		ks := make([]*linalg.Matrix, len(dks))
		for i := range ks {
			ks[i] = linalg.NewMatrix(n, n)
		}
		return linalg.NewMatrix(n, n), ks
	}
	j1, k1 := fresh()
	j8, k8 := fresh()
	digestOnePass(j1, dj, k1, dks, shells, q[0], q[1], q[2], q[3], blk)
	digestUniqueQuartet(j8, dj, k8, dks, shells, q[0], q[1], q[2], q[3], blk)
	j1.Symmetrize()
	diff := j1.MaxAbsDiff(j8)
	for i := range k1 {
		k1[i].Symmetrize()
		diff = math.Max(diff, k1[i].MaxAbsDiff(k8[i]))
	}
	return diff
}

// The one-pass digest, symmetrized, must reproduce the 8-permutation
// reference quartet by quartet, for RHF (one K) and UHF (Kα/Kβ against
// different densities). The sweep takes every canonical quartet of
// water/6-31G*, which covers every degeneracy pattern (ia=ib, ic=id,
// (ia,ib)=(ic,id), all four equal). Its single d shell comes after the
// oxygen s and p shells, so canonical order reaches only some of the 81
// (la,lb,lc,ld) classes; each remaining class is covered by the first
// ordered quartet of that class whose permutations are all distinct.
func TestDigestOnePassMatchesPermutations(t *testing.T) {
	const tol = 1e-13 // relative to the block's largest |integral|
	bs := mustBasis(t, "6-31g*", Water())
	shells := bs.Shells
	rng := rand.New(rand.NewSource(7))
	d := randomDensity(bs.NBF, rng)
	dA, dB := randomDensity(bs.NBF, rng), randomDensity(bs.NBF, rng)
	dTot := dA.Clone()
	dTot.AddScaled(1, dB)

	var classes [3][3][3][3]bool
	patterns := map[string]bool{}
	var worst float64
	check := func(ia, ib, ic, id int) {
		a, b, c, dd := &shells[ia], &shells[ib], &shells[ic], &shells[id]
		classes[a.L][b.L][c.L][dd.L] = true
		switch {
		case ia == ib && ib == ic && ic == id:
			patterns["all equal"] = true
		case ia == ic && ib == id:
			patterns["(ab)=(cd)"] = true
		case ia == ib && ic == id:
			patterns["a=b, c=d"] = true
		case ia == ib:
			patterns["a=b"] = true
		case ic == id:
			patterns["c=d"] = true
		default:
			patterns["distinct"] = true
		}
		blk := ERIBlock(a, b, c, dd)
		var bmax float64
		for _, v := range blk {
			bmax = math.Max(bmax, math.Abs(v))
		}
		q := [4]int{ia, ib, ic, id}
		for _, c := range []struct {
			name string
			diff float64
		}{
			{"RHF", digestQuartetPair(shells, q, blk, d, []*linalg.Matrix{d})},
			{"UHF", digestQuartetPair(shells, q, blk, dTot, []*linalg.Matrix{dA, dB})},
		} {
			if bmax > 0 {
				worst = math.Max(worst, c.diff/bmax)
			}
			if c.diff > tol*bmax {
				t.Errorf("%s (%d%d|%d%d): one-pass differs from permutations by %g (block max %g)",
					c.name, ia, ib, ic, id, c.diff, bmax)
			}
		}
	}
	for ib := range shells {
		for ia := 0; ia <= ib; ia++ {
			for id := range shells {
				for ic := 0; ic <= id; ic++ {
					if pairIndex(ic, id) <= pairIndex(ia, ib) {
						check(ia, ib, ic, id)
					}
				}
			}
		}
	}
	n := len(shells)
	for q := 0; q < n*n*n*n; q++ {
		ia, ib, ic, id := q/(n*n*n), q/(n*n)%n, q/n%n, q%n
		cl := &classes[shells[ia].L][shells[ib].L][shells[ic].L][shells[id].L]
		if *cl {
			continue
		}
		if quartetDegeneracy(ia, ib, ic, id) == float64(len(quartetPermutations(ia, ib, ic, id))) {
			check(ia, ib, ic, id)
		}
	}
	var nClasses int
	for la := range classes {
		for lb := range classes[la] {
			for lc := range classes[la][lb] {
				for ld := range classes[la][lb][lc] {
					if classes[la][lb][lc][ld] {
						nClasses++
					}
				}
			}
		}
	}
	if nClasses != 81 {
		t.Errorf("covered %d of 81 (la,lb,lc,ld) classes", nClasses)
	}
	for _, p := range []string{"all equal", "(ab)=(cd)", "a=b, c=d", "a=b", "c=d", "distinct"} {
		if !patterns[p] {
			t.Errorf("degeneracy pattern %q not covered", p)
		}
	}
	t.Logf("worst relative difference %.2g over %d classes", worst, nClasses)
}

// The one-pass digest must not allocate, for either spin shape.
func TestDigestOnePassZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	bs := mustBasis(t, "6-31g*", Water())
	n := bs.NBF
	var q [4]int
	for i := range bs.Shells {
		if bs.Shells[i].L == 2 {
			q = [4]int{i, i, i, i}
		}
	}
	a := &bs.Shells[q[0]]
	blk := ERIBlock(a, a, a, a)
	d := linalg.Identity(n)
	j := linalg.NewMatrix(n, n)
	ks := []*linalg.Matrix{linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)}
	dks := []*linalg.Matrix{d, d}
	avg := testing.AllocsPerRun(20, func() {
		digestOnePass(j, d, ks[:1], dks[:1], bs.Shells, q[0], q[1], q[2], q[3], blk)
		digestOnePass(j, d, ks, dks, bs.Shells, q[0], q[1], q[2], q[3], blk)
	})
	if avg != 0 {
		t.Errorf("digestOnePass allocates %.1f times per call pair, want 0", avg)
	}
}
