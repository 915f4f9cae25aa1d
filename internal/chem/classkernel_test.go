package chem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"execmodels/internal/linalg"
)

// randomShell returns a contracted shell of angular momentum l with 1-3
// primitives at an off-axis centre: random exponents over three decades
// and random signed coefficients, so no E coefficient vanishes by
// symmetry.
func randomShell(rng *rand.Rand, l int) *Shell {
	n := 1 + rng.Intn(3)
	sh := &Shell{
		L:      l,
		Center: Vec3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1},
		Exps:   make([]float64, n),
		Coefs:  make([]float64, n),
	}
	for i := range sh.Exps {
		sh.Exps[i] = math.Pow(10, 3*rng.Float64()-1)
		sh.Coefs[i] = 2*rng.Float64() - 1
	}
	return sh
}

// lowLClasses lists every (la, lb, lc, ld) with la+lb+lc+ld <= 2: every
// orientation of (ss|ss), (ss|sp), (ss|pp), (sp|sp) and (ss|sd).
func lowLClasses() [][4]int {
	var out [][4]int
	for la := 0; la <= 2; la++ {
		for lb := 0; lb <= 2-la; lb++ {
			for lc := 0; lc <= 2-la-lb; lc++ {
				for ld := 0; ld <= 2-la-lb-lc; ld++ {
					out = append(out, [4]int{la, lb, lc, ld})
				}
			}
		}
	}
	return out
}

// blockRelDiff returns max_k |got_k - want_k| / max_k |want_k|.
func blockRelDiff(got, want []float64) float64 {
	var diff, scale float64
	for k := range want {
		diff = math.Max(diff, math.Abs(got[k]-want[k]))
		scale = math.Max(scale, math.Abs(want[k]))
	}
	return diff / scale
}

// Every quartet class with total angular momentum <= 2 is served by a
// closed-form class kernel; each must reproduce both the generic
// two-step contraction and the unspecialized ERIBlock to 1e-13 relative
// to the block's largest integral, on random off-axis geometries.
func TestClassKernelsMatchTwoStepAndERIBlock(t *testing.T) {
	classes := lowLClasses()
	if len(classes) != 15 {
		t.Fatalf("%d low-L classes, want 15", len(classes))
	}
	rng := rand.New(rand.NewSource(13))
	var s, sGen ERIScratch
	var worst float64
	for _, l := range classes {
		for trial := 0; trial < 20; trial++ {
			a, b := randomShell(rng, l[0]), randomShell(rng, l[1])
			c, d := randomShell(rng, l[2]), randomShell(rng, l[3])
			bra, ket := NewPairData(a, b), NewPairData(c, d)
			got := ERIBlockPairInto(bra, ket, &s)
			gen := eriTwoStep(bra, ket, &sGen)
			normalizeBlock(gen, a, b, c, d)
			ref := ERIBlock(a, b, c, d)
			for _, cmp := range []struct {
				name string
				want []float64
			}{{"two-step", gen}, {"ERIBlock", ref}} {
				rel := blockRelDiff(got, cmp.want)
				worst = math.Max(worst, rel)
				if rel > 1e-13 {
					t.Errorf("class %v trial %d: kernel differs from %s by %.2g relative", l, trial, cmp.name, rel)
				}
			}
		}
	}
	t.Logf("worst relative difference over %d classes: %.2g", len(classes), worst)
}

// The class kernels are allocation-free hot-path code: driving each of
// them through ERIBlockPairInto with a pre-sized scratch, and directly,
// must not allocate.
func TestClassKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(7))
	for _, l := range lowLClasses() {
		a, b := randomShell(rng, l[0]), randomShell(rng, l[1])
		c, d := randomShell(rng, l[2]), randomShell(rng, l[3])
		bra, ket := NewPairData(a, b), NewPairData(c, d)
		s := &ERIScratch{}
		ERIBlockPairInto(bra, ket, s)
		blk := make([]float64, a.NumFuncs()*b.NumFuncs()*c.NumFuncs()*d.NumFuncs())
		var r [10]float64
		if n := testing.AllocsPerRun(20, func() {
			ERIBlockPairInto(bra, ket, s)
			switch lab, lcd := l[0]+l[1], l[2]+l[3]; {
			case lcd == 0:
				eriKetSS(bra, ket, blk)
			case lab == 0:
				eriKetSS(ket, bra, blk)
			default:
				eriSPSP(bra, ket, blk)
			}
			hermiteRLow(l[0]+l[1]+l[2]+l[3], 0.7, 1, Vec3{X: 0.1, Y: -0.2, Z: 0.3}, &r)
		}); n != 0 {
			t.Errorf("class %v: %.1f allocations per call, want 0", l, n)
		}
	}
}

// unprunedCopy returns w with freshly built, unpruned pair data: the
// same tasks and quartets, every primitive pair kept.
func unprunedCopy(w *FockWorkload) *FockWorkload {
	u := *w
	u.pairData = make([]*PairData, len(w.Pairs))
	for i, p := range w.Pairs {
		u.pairData[i] = NewPairData(&w.Basis.Shells[p.I], &w.Basis.Shells[p.J])
	}
	return &u
}

// Primitive-pair screening tied to the Schwarz threshold must not move
// the Fock matrix: at threshold 1e-10 the pruned build stays within
// 1e-12 of the unpruned build of the same quartets.
func TestPrimScreeningBound(t *testing.T) {
	for _, c := range []struct {
		n     int
		basis string
	}{{4, "sto-3g"}, {8, "sto-3g"}, {2, "6-31g*"}} {
		t.Run(fmt.Sprintf("w%d-%s", c.n, c.basis), func(t *testing.T) {
			mol := WaterCluster(c.n, 1)
			bs := mustBasis(t, c.basis, mol)
			h := CoreHamiltonian(bs, mol)
			d := testDensity(bs, mol, h)
			w := BuildFockWorkload(bs, 1e-10, 4)
			u := unprunedCopy(w)
			pruned, full := w.Stats(), u.Stats()
			if pruned.PrimQuartets >= full.PrimQuartets {
				t.Errorf("pruning kept %d of %d primitive quartets", pruned.PrimQuartets, full.PrimQuartets)
			}
			diff := w.BuildFock(h, d).MaxAbsDiff(u.BuildFock(h, d))
			if diff > 1e-12 {
				t.Errorf("pruned Fock differs from unpruned by %g", diff)
			}
			t.Logf("kept %d of %d primitive quartets (%.0f%%), Fock change %.2g",
				pruned.PrimQuartets, full.PrimQuartets,
				100*float64(pruned.PrimQuartets)/float64(full.PrimQuartets), diff)
		})
	}
}

// The pruned, class-kernel SCF must land on the energy of the naive
// unscreened N^4 path.
func TestPrunedSCFMatchesNaiveEnergy(t *testing.T) {
	naive := func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
		return BuildFockNaive(w.Basis, h, d)
	}
	for _, tc := range []struct {
		name string
		mol  *Molecule
	}{{"h2", H2(1.4)}, {"water", Water()}} {
		t.Run(tc.name, func(t *testing.T) {
			bs := mustBasis(t, "sto-3g", tc.mol)
			opts := SCFOptions{Screening: 1e-10, UseDIIS: true}
			fast, err := RunSCF(tc.mol, bs, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunSCF(tc.mol, bs, opts, naive)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(fast.Energy - ref.Energy); d > 1e-9 {
				t.Errorf("energy %.12f differs from the naive path's %.12f by %.2g", fast.Energy, ref.Energy, d)
			}
		})
	}
}

// PrimPairs and PrimQuartets count exactly: at threshold 0 they are the
// full contraction-length products, and after pruning they repeat
// exactly across independent workload builds.
func TestWorkloadPrimCounts(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(2, 11))
	w := BuildFockWorkload(bs, 0, 3)
	st := w.Stats()
	nprim := func(p ShellPair) int64 {
		return int64(len(bs.Shells[p.I].Exps) * len(bs.Shells[p.J].Exps))
	}
	var pairs, quarts int64
	for bi, bra := range w.Pairs {
		pairs += nprim(bra)
		for _, ket := range w.Pairs[:bi+1] {
			quarts += nprim(bra) * nprim(ket)
		}
	}
	if st.PrimPairs != pairs || st.PrimQuartets != quarts {
		t.Errorf("threshold 0: %d primitive pairs, %d quartets; want %d, %d", st.PrimPairs, st.PrimQuartets, pairs, quarts)
	}

	w4 := mustBasis(t, "sto-3g", WaterCluster(4, 1))
	s1 := BuildFockWorkload(w4, 1e-10, 4).Stats()
	s2 := BuildFockWorkload(w4, 1e-10, 4).Stats()
	if s1 != s2 {
		t.Errorf("stats differ across builds: %+v vs %+v", s1, s2)
	}
	if s1.PrimQuartets == 0 || s1.PrimPairs == 0 {
		t.Errorf("no primitive work counted: %+v", s1)
	}
}
