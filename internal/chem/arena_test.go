package chem

import (
	"testing"

	"execmodels/internal/linalg"
)

// arenaWorkload builds a small but shell-diverse workload (s and p
// shells, multiple water units) for the arena tests.
func arenaWorkload(t testing.TB) (*FockWorkload, *linalg.Matrix) {
	t.Helper()
	mol := WaterCluster(2, 11)
	bs, err := NewBasis("sto-3g", mol)
	if err != nil {
		t.Fatal(err)
	}
	w := BuildFockWorkload(bs, 1e-10, 3)
	if len(w.Tasks) < 4 {
		t.Fatalf("workload too small: %d tasks", len(w.Tasks))
	}
	return w, linalg.Identity(bs.NBF)
}

// baselineTol bounds the fast path's deviation from the retained
// baseline foil. The two-step ERI contraction sums the same Hermite terms
// in a different order than the baseline's 9-deep loop, so J/K differ in
// the last bits (≤ ~5e-15 on this workload); the quartet multiset must
// still agree exactly.
const baselineTol = 1e-13

// The arena-backed fast path must reproduce the retained baseline
// implementation: the same quartets digested, and J/K equal up to the
// ERI kernel's summation order. The one-pass digest accumulates J/K
// whose symmetric part is the contribution, so the fast path's
// matrices are symmetrized before the comparison; the baseline's
// 8-permutation scatter is symmetric already.
func TestExecuteTaskScratchMatchesBaseline(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	for i := range w.Tasks {
		jF, kF := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		jB, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		doneF := w.ExecuteTaskScratch(&w.Tasks[i], d, jF, kF, s)
		doneB := w.ExecuteTaskBaseline(&w.Tasks[i], d, jB, kB)
		if doneF != doneB {
			t.Fatalf("task %d: %d quartets (scratch) vs %d (baseline)", i, doneF, doneB)
		}
		jF.Symmetrize()
		kF.Symmetrize()
		if diff := jF.MaxAbsDiff(jB); diff > baselineTol {
			t.Errorf("task %d: J differs from baseline by %g", i, diff)
		}
		if diff := kF.MaxAbsDiff(kB); diff > baselineTol {
			t.Errorf("task %d: K differs from baseline by %g", i, diff)
		}
	}
}

// A warmed-up scratch arena must make the steady-state ERI loop
// allocation-free: zero heap allocations per task. This is the perf
// trajectory's regression gate — BENCH_wall.json's allocs/task column is
// only meaningful while this holds.
func TestExecuteTaskScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	// Warm up: first execution may grow lazily-sized buffers.
	for i := range w.Tasks {
		w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := range w.Tasks {
			w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
		}
	})
	if avg != 0 {
		t.Errorf("ExecuteTaskScratch allocates %.1f times per sweep, want 0", avg)
	}
}

// The spin (UHF) variant shares the scratch plumbing and must be
// allocation-free too.
func TestExecuteTaskSpinScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race pass")
	}
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	s := w.NewScratch()
	j, kA, kB := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskSpinScratch(&w.Tasks[i], d, d, d, j, kA, kB, s)
	}
	avg := testing.AllocsPerRun(5, func() {
		for i := range w.Tasks {
			w.ExecuteTaskSpinScratch(&w.Tasks[i], d, d, d, j, kA, kB, s)
		}
	})
	if avg != 0 {
		t.Errorf("ExecuteTaskSpinScratch allocates %.1f times per sweep, want 0", avg)
	}
}

// A zero-value scratch must work (growing on demand) so ad-hoc callers
// like ERIBlockPair stay correct, and growing must not change a bit of
// the result: every task through one zero-value scratch equals the same
// task through a pre-sized NewScratch arena.
func TestZeroValueScratch(t *testing.T) {
	w, d := arenaWorkload(t)
	n := w.Basis.NBF
	var s ERIScratch
	sRef := w.NewScratch()
	for i := range w.Tasks {
		j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		jRef, kRef := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
		w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, &s)
		w.ExecuteTaskScratch(&w.Tasks[i], d, jRef, kRef, sRef)
		if diff := jRef.MaxAbsDiff(j); diff != 0 {
			t.Errorf("task %d: zero-value scratch J differs by %g", i, diff)
		}
		if diff := kRef.MaxAbsDiff(k); diff != 0 {
			t.Errorf("task %d: zero-value scratch K differs by %g", i, diff)
		}
	}
}

// quartetDegeneracy must count exactly the distinct permutations the
// map-based enumeration produces, for every canonical quartet (both pairs
// ascending, bra pair index >= ket pair index) over five shells — every
// equality pattern the task generator can emit. The one-pass digest's
// scale factors stand in for that list.
func TestQuartetDegeneracyMatchesPermutations(t *testing.T) {
	const shells = 5
	for b := 0; b < shells; b++ {
		for a := 0; a <= b; a++ {
			for d := 0; d < shells; d++ {
				for c := 0; c <= d; c++ {
					if pairIndex(c, d) > pairIndex(a, b) {
						continue
					}
					want := len(quartetPermutations(a, b, c, d))
					if got := quartetDegeneracy(a, b, c, d); got != float64(want) {
						t.Errorf("(%d%d|%d%d): degeneracy %v, want %d", a, b, c, d, got, want)
					}
				}
			}
		}
	}
}
