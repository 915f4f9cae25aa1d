package chem

import (
	"testing"

	"execmodels/internal/linalg"
)

// Per-layer kernel benchmarks. Run with -benchmem: every scratch path
// below reports 0 allocs/op.
//
//	go test -run '^$' -bench 'Boys|ERIBlockPair|BuildFock' -benchmem ./internal/chem

// BenchmarkBoys times one Boys(4, x) call over 64 points spread across
// [0, 40), covering the tabulated range and the asymptotic branch.
func BenchmarkBoys(b *testing.B) {
	var xs [64]float64
	for i := range xs {
		xs[i] = 40 * float64(i) / float64(len(xs))
	}
	var out [9]float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Boys(4, xs[i%len(xs)], out[:])
	}
}

// firstPair returns the pair data of the first shell pair of bs with
// angular momenta (la, lb).
func firstPair(tb testing.TB, bs *BasisSet, la, lb int) *PairData {
	tb.Helper()
	for i := range bs.Shells {
		for k := range bs.Shells {
			if bs.Shells[i].L == la && bs.Shells[k].L == lb {
				return NewPairData(&bs.Shells[i], &bs.Shells[k])
			}
		}
	}
	tb.Fatalf("no (%d,%d) shell pair", la, lb)
	return nil
}

// BenchmarkERIBlockPairInto times one shell quartet per class on water:
// STO-3G for the s/p classes, 6-31G* for (dd|dd).
func BenchmarkERIBlockPairInto(b *testing.B) {
	for _, cl := range []struct {
		name  string
		basis string
		l     [4]int
	}{
		{"ssss", "sto-3g", [4]int{0, 0, 0, 0}},
		{"psss", "sto-3g", [4]int{1, 0, 0, 0}},
		{"pppp", "sto-3g", [4]int{1, 1, 1, 1}},
		{"dddd", "6-31g*", [4]int{2, 2, 2, 2}},
	} {
		b.Run(cl.name, func(b *testing.B) {
			bs := mustBasis(b, cl.basis, Water())
			bra, ket := firstPair(b, bs, cl.l[0], cl.l[1]), firstPair(b, bs, cl.l[2], cl.l[3])
			s := NewERIScratch(bs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ERIBlockPairInto(bra, ket, s)
			}
		})
	}
}

// BenchmarkBuildFock times the two-electron part of one serial Fock
// build (every task through one scratch arena) on the two SCF benchmark
// systems: (H2O)4/STO-3G and (H2O)2/6-31G*, screening 1e-10, block 4.
func BenchmarkBuildFock(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		basis string
	}{
		{"w4-sto3g", 4, "sto-3g"},
		{"w2-631gs", 2, "6-31g*"},
	} {
		b.Run(c.name, func(b *testing.B) {
			bs := mustBasis(b, c.basis, WaterCluster(c.n, 1))
			w := BuildFockWorkload(bs, 1e-10, 4)
			n := bs.NBF
			d := linalg.Identity(n)
			j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			s := w.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Zero()
				k.Zero()
				for t := range w.Tasks {
					w.ExecuteTaskScratch(&w.Tasks[t], d, j, k, s)
				}
			}
		})
	}
}
