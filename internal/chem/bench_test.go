package chem

import (
	"strconv"
	"testing"

	"execmodels/internal/linalg"
)

// Per-layer kernel benchmarks. Run with -benchmem: every scratch path
// below reports 0 allocs/op.
//
//	go test -run '^$' -bench 'Boys|HermiteR|ERIBlockPair|ERIClass|Digest|JKMerge|BuildFock' -benchmem ./internal/chem

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
// STO-3G for the s/p classes, 6-31G* for (dd|dd). ssss, psss, ssps,
// sspp and spsp go through the closed-form class kernels; pppp and dddd
// through the generic two-step contraction.
func BenchmarkERIBlockPairInto(b *testing.B) {
	for _, cl := range []struct {
		name  string
		basis string
		l     [4]int
	}{
		{"ssss", "sto-3g", [4]int{0, 0, 0, 0}},
		{"psss", "sto-3g", [4]int{1, 0, 0, 0}},
		{"ssps", "sto-3g", [4]int{0, 0, 1, 0}},
		{"sspp", "sto-3g", [4]int{0, 0, 1, 1}},
		{"spsp", "sto-3g", [4]int{0, 1, 0, 1}},
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

// BenchmarkHermiteR times the generic Hermite Coulomb recursion (Boys
// function included) at total angular momentum 1, 2, 4 and 8 — the
// orders of (ss|sp), (sp|sp), (pp|pp) and (dd|dd) — over 16 points
// spread across both Boys branches.
func BenchmarkHermiteR(b *testing.B) {
	var pts [16]Vec3
	for i := range pts {
		f := float64(i) / float64(len(pts))
		pts[i] = Vec3{X: 3 * f, Y: 1 - 2*f, Z: 0.5 * f}
	}
	for _, l := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(l), func(b *testing.B) {
			var w hermiteRWork
			w.grow(l)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.compute(l, 2.5, pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkERIClass times every surviving quartet of a serial
// (H2O)4/STO-3G build (screening 1e-10), grouped by total angular
// momentum, and reports ns per primitive quartet actually evaluated:
// L0 is (ss|ss), L1 every (ss|sp) orientation, L2 the (ss|pp) and
// (sp|sp) families, L3 (sp|pp), L4 (pp|pp).
func BenchmarkERIClass(b *testing.B) {
	bs := mustBasis(b, "sto-3g", WaterCluster(4, 1))
	w := BuildFockWorkload(bs, 1e-10, 4)
	type quartet struct{ bra, ket *PairData }
	var byL [5][]quartet
	var prims [5]int
	for ti := range w.Tasks {
		t := &w.Tasks[ti]
		for bi, kets := range t.Kets {
			bra := w.pairData[t.PairOffset+bi]
			for _, ki := range kets {
				ket := w.pairData[ki]
				l := bra.A.L + bra.B.L + ket.A.L + ket.B.L
				byL[l] = append(byL[l], quartet{bra, ket})
				prims[l] += len(bra.prims) * len(ket.prims)
			}
		}
	}
	for l, qs := range byL {
		b.Run("L"+strconv.Itoa(l), func(b *testing.B) {
			s := w.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					ERIBlockPairInto(q.bra, q.ket, s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(prims[l]), "ns/primquartet")
			b.ReportMetric(float64(prims[l]), "primquartets")
		})
	}
}

// BenchmarkDigest times the one-pass J/K digest of one shell-quartet
// block per class, restricted (J and one K) and unrestricted (J, Kα and
// Kβ). The quartet takes the first four distinct shells of the class on
// (H2O)4 — STO-3G for (ss|ss) and (pp|pp), 6-31G* for (dd|dd) — so it
// has the generic degeneracy 8 that most quartets of a build carry.
func BenchmarkDigest(b *testing.B) {
	for _, cl := range []struct {
		name  string
		basis string
		l     int
	}{
		{"ssss", "sto-3g", 0},
		{"pppp", "sto-3g", 1},
		{"dddd", "6-31g*", 2},
	} {
		bs := mustBasis(b, cl.basis, WaterCluster(4, 1))
		var q []int
		for i := range bs.Shells {
			if bs.Shells[i].L == cl.l && len(q) < 4 {
				q = append(q, i)
			}
		}
		blk := ERIBlock(&bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]])
		n := bs.NBF
		d := linalg.Identity(n)
		j := linalg.NewMatrix(n, n)
		ks := []*linalg.Matrix{linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)}
		dks := []*linalg.Matrix{d, d}
		for _, spin := range []struct {
			name string
			nk   int
		}{{"rhf", 1}, {"uhf", 2}} {
			b.Run(cl.name+"/"+spin.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					digestOnePass(j, d, ks[:spin.nk], dks[:spin.nk], bs.Shells, q[0], q[1], q[2], q[3], blk)
				}
			})
		}
	}
}

// BenchmarkJKMerge times folding one worker's restricted accumulator
// (J and K) into the shared matrices, JKAccum.MergeInto, at the
// (H2O)2/6-31G* dimension (NBF 38): the per-worker cost every parallel
// Fock build pays after its workers stop.
func BenchmarkJKMerge(b *testing.B) {
	bs := mustBasis(b, "6-31g*", WaterCluster(2, 1))
	w := BuildFockWorkload(bs, 1e-10, 4)
	n := bs.NBF
	acc := w.NewJKAccum(false)
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.MergeInto(j, k, nil)
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
