package chem

import (
	"math"

	"execmodels/internal/linalg"
)

// This file preserves the pre-arena ERI hot path verbatim, and hosts the
// two reference implementations the differential test harness pins the
// fast path against:
//
//   - ExecuteTaskBaseline / ExecuteTaskSpinBaseline: the pre-arena task
//     executor, still screening inside the worker loop. It is the "before"
//     point of the perf trajectory (BENCH_wall.json, the
//     BenchmarkExecuteTask* pair) and the foil proving that generation-time
//     screening (FockTask.Kets) selects exactly the quartets the in-loop
//     bound test did.
//   - digestUniqueQuartet: the 8-permutation J/K scatter the pre-arena
//     executor digests with — each distinct shell-index permutation of a
//     quartet in its own pass — and the per-quartet reference the
//     one-pass digest (digestOnePass) is pinned against.
//   - BuildFockNaive / NaiveSpinJK: the symmetry-free, unscreened
//     quadruple shell loop — every ordered quartet computed independently,
//     no 8-fold folding, no Schwarz bound. It is the ground truth the
//     canonical-quartet enumeration and symmetric digest are validated
//     against (and the cmd/hfscf -nosym escape hatch).
//
// The baseline executor's per-quartet costs are the point: a fresh result
// block, fresh Hermite R tables per primitive pair, per-call Cartesian
// component tables and a π^{5/2} power in the primitive loop.

// eriBlockPairBaseline is the original ERIBlockPair: the 9-deep
// McMurchie–Davidson loop over per-dimension Hermite E tables, which it
// rebuilds from the primitive indices PairData records. The result
// layout matches ERIBlock(bra.A, bra.B, ket.A, ket.B).
func eriBlockPairBaseline(bra, ket *PairData) []float64 {
	a, b, c, d := bra.A, bra.B, ket.A, ket.B
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	blk := make([]float64, na*nb*nc*nd)
	ca, cb, cc, cd := makeComponents(a.L), makeComponents(b.L), makeComponents(c.L), makeComponents(d.L)
	ltot := a.L + b.L + c.L + d.L
	ab, cdv := a.Center.Sub(b.Center), c.Center.Sub(d.Center)
	ketE := make([][3]*hermiteE, len(ket.prims))
	for i, qq := range ket.prims {
		ec, ed := c.Exps[qq.ia], d.Exps[qq.ib]
		ketE[i] = [3]*hermiteE{
			newHermiteE(c.L, d.L, ec, ed, cdv.X),
			newHermiteE(c.L, d.L, ec, ed, cdv.Y),
			newHermiteE(c.L, d.L, ec, ed, cdv.Z),
		}
	}

	for _, pp := range bra.prims {
		ea, eb := a.Exps[pp.ia], b.Exps[pp.ib]
		e1x := newHermiteE(a.L, b.L, ea, eb, ab.X)
		e1y := newHermiteE(a.L, b.L, ea, eb, ab.Y)
		e1z := newHermiteE(a.L, b.L, ea, eb, ab.Z)
		for qi, qq := range ket.prims {
			e2x, e2y, e2z := ketE[qi][0], ketE[qi][1], ketE[qi][2]
			alpha := pp.p * qq.p / (pp.p + qq.p)
			r := newHermiteR(ltot, alpha, pp.P.Sub(qq.P))
			pref := pp.cab * qq.cab * 2 * math.Pow(math.Pi, 2.5) /
				(pp.p * qq.p * math.Sqrt(pp.p+qq.p))

			idx := 0
			for _, A := range ca {
				for _, B := range cb {
					lx1, ly1, lz1 := A.Lx+B.Lx, A.Ly+B.Ly, A.Lz+B.Lz
					for _, C := range cc {
						for _, D := range cd {
							lx2, ly2, lz2 := C.Lx+D.Lx, C.Ly+D.Ly, C.Lz+D.Lz
							var sum float64
							for t := 0; t <= lx1; t++ {
								et1 := e1x.at(A.Lx, B.Lx, t)
								if et1 == 0 {
									continue
								}
								for u := 0; u <= ly1; u++ {
									eu1 := e1y.at(A.Ly, B.Ly, u)
									if eu1 == 0 {
										continue
									}
									for v := 0; v <= lz1; v++ {
										ev1 := e1z.at(A.Lz, B.Lz, v)
										if ev1 == 0 {
											continue
										}
										e1 := et1 * eu1 * ev1
										for tau := 0; tau <= lx2; tau++ {
											et2 := e2x.at(C.Lx, D.Lx, tau)
											if et2 == 0 {
												continue
											}
											for nu := 0; nu <= ly2; nu++ {
												eu2 := e2y.at(C.Ly, D.Ly, nu)
												if eu2 == 0 {
													continue
												}
												for phi := 0; phi <= lz2; phi++ {
													ev2 := e2z.at(C.Lz, D.Lz, phi)
													if ev2 == 0 {
														continue
													}
													sign := 1.0
													if (tau+nu+phi)&1 == 1 {
														sign = -1
													}
													sum += e1 * sign * et2 * eu2 * ev2 *
														r.at(t+tau, u+nu, v+phi)
												}
											}
										}
									}
								}
							}
							blk[idx] += pref * sum
							idx++
						}
					}
				}
			}
		}
	}
	if a.L >= 2 || b.L >= 2 || c.L >= 2 || d.L >= 2 {
		normA, normB := makeComponentNorms(a.L), makeComponentNorms(b.L)
		normC, normD := makeComponentNorms(c.L), makeComponentNorms(d.L)
		idx := 0
		for _, va := range normA {
			for _, vb := range normB {
				for _, vc := range normC {
					for _, vd := range normD {
						blk[idx] *= va * vb * vc * vd
						idx++
					}
				}
			}
		}
	}
	return blk
}

// ExecuteTaskSpinBaseline is the unrestricted counterpart of
// ExecuteTaskBaseline: the same pre-arena quartet loop with the Schwarz
// bound still tested inside the worker, digesting J against the total
// density and separate exchange matrices against the α/β densities. The
// differential harness pins ExecuteTaskSpinScratch bitwise against it.
func (w *FockWorkload) ExecuteTaskSpinBaseline(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix) int {
	shells := w.Basis.Shells
	ks, dks := []*linalg.Matrix{kA, kB}, []*linalg.Matrix{dA, dB}
	var done int
	for bi, bra := range t.BraPairs {
		braPD := w.pairData[t.PairOffset+bi]
		for ki, ket := range w.Pairs {
			if t.PairOffset+bi < ki {
				break
			}
			if bra.Bound*ket.Bound < w.Threshold {
				continue
			}
			blk := eriBlockPairBaseline(braPD, w.pairData[ki])
			digestUniqueQuartet(j, dTot, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// BuildFockBaseline is BuildFock through ExecuteTaskBaseline: the serial
// pre-arena reference Fock matrix the differential equivalence matrix
// compares every executor × worker-count × block-size cell against.
func (w *FockWorkload) BuildFockBaseline(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	for i := range w.Tasks {
		w.ExecuteTaskBaseline(&w.Tasks[i], d, j, k)
	}
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	f.Symmetrize()
	return f
}

// naiveJK accumulates J and the given exchange matrices over every
// ordered shell quartet of the basis — the quadruple loop with no
// permutational symmetry and no screening. Each ordered quartet's block
// is computed independently by ERIBlock and digested once with the
// identity permutation, so the 8-fold folding never enters.
func naiveJK(bs *BasisSet, dj *linalg.Matrix, dks []*linalg.Matrix, j *linalg.Matrix, ks []*linalg.Matrix) {
	sh := bs.Shells
	for ia := range sh {
		for ib := range sh {
			for ic := range sh {
				for id := range sh {
					a, b, c, d := &sh[ia], &sh[ib], &sh[ic], &sh[id]
					blk := ERIBlock(a, b, c, d)
					nb, nc, nd := b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
					digestJK(j, dj, ks, dks, a, b, c, d, func(fa, fb, fc, fd int) float64 {
						return blk[((fa*nb+fb)*nc+fc)*nd+fd]
					})
				}
			}
		}
	}
}

// BuildFockNaive computes F = H + J − K/2 by the naive quadruple shell
// loop: every ordered quartet (N⁴ of them) computed once, no symmetry
// folding, no Schwarz screening. It is the semantic ground truth for the
// symmetric screened build (equal to a threshold-0 BuildFock up to
// floating-point accumulation order) and the cmd/hfscf -nosym path. Cost
// is ~8× the symmetric build before screening even starts — small
// systems only.
func BuildFockNaive(bs *BasisSet, h, d *linalg.Matrix) *linalg.Matrix {
	n := bs.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	naiveJK(bs, d, []*linalg.Matrix{d}, j, []*linalg.Matrix{k})
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	f.Symmetrize()
	return f
}

// NaiveSpinJK is the unrestricted naive reference: J contracted against
// the total density and per-spin exchange matrices against dA/dB, over
// every ordered quartet with no symmetry or screening.
func NaiveSpinJK(bs *BasisSet, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
	n := bs.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	kB = linalg.NewMatrix(n, n)
	naiveJK(bs, dTot, []*linalg.Matrix{dA, dB}, j, []*linalg.Matrix{kA, kB})
	return j, kA, kB
}

// eriGetter returns the integral (ab|cd) for function offsets within a
// permuted view of a shell-quartet block.
type eriGetter func(fa, fb, fc, fd int) float64

// digestJK scatters one ordered shell-quartet block into the Coulomb (J)
// and exchange (K) accumulators:
//
//	J[μν] += DJ[λσ]·(μν|λσ)      K_i[μλ] += DK_i[νσ]·(μν|λσ)
//
// with μ∈a, ν∈b, λ∈c, σ∈d. The Coulomb and exchange terms may contract
// different densities (RHF uses the same one; UHF contracts the total
// density for J and the per-spin densities for the two Ks). Callers are
// responsible for enumerating every distinct shell-index permutation of a
// unique quartet exactly once, which together reproduces the full
// unrestricted contraction.
func digestJK(j *linalg.Matrix, dj *linalg.Matrix, ks, dks []*linalg.Matrix, a, b, c, dd *Shell, get eriGetter) {
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), dd.NumFuncs()
	kAcc := make([]float64, len(ks))
	for fa := 0; fa < na; fa++ {
		mu := a.Start + fa
		for fb := 0; fb < nb; fb++ {
			nu := b.Start + fb
			var jAcc float64
			for fc := 0; fc < nc; fc++ {
				lam := c.Start + fc
				for i := range kAcc {
					kAcc[i] = 0
				}
				for fd := 0; fd < nd; fd++ {
					sig := dd.Start + fd
					v := get(fa, fb, fc, fd)
					jAcc += dj.At(lam, sig) * v
					for i, dk := range dks {
						kAcc[i] += dk.At(nu, sig) * v
					}
				}
				for i, k := range ks {
					k.Add(mu, lam, kAcc[i])
				}
			}
			j.Add(mu, nu, jAcc)
		}
	}
}

// quartetPermutations enumerates the distinct shell-index permutations of
// the unique quartet (a,b,c,d) under the 8-fold integral symmetry
// (ab|cd) = (ba|cd) = (ab|dc) = (ba|dc) = (cd|ab) = (dc|ab) = (cd|ba) = (dc|ba).
// Each permutation is returned as the four original-block roles for the
// (bra1, bra2, ket1, ket2) positions: e.g. [1 0 2 3] means the permuted
// view is (ba|cd) and its (fa,fb,fc,fd) element reads the original block
// at (fb,fa,fc,fd).
func quartetPermutations(a, b, c, d int) [][4]int {
	all := [][4]int{
		{0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {1, 0, 3, 2},
		{2, 3, 0, 1}, {3, 2, 0, 1}, {2, 3, 1, 0}, {3, 2, 1, 0},
	}
	ids := [4]int{a, b, c, d}
	seen := make(map[[4]int]bool, 8)
	var out [][4]int
	for _, p := range all {
		key := [4]int{ids[p[0]], ids[p[1]], ids[p[2]], ids[p[3]]}
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// digestUniqueQuartet digests the precomputed ERI block of the unique
// quartet, scattering every distinct permutation into J and the K
// accumulators. shells is the full shell list; ia..id index into it; blk
// is laid out as ERIBlock(ia, ib, ic, id).
//
// This closure-based form allocates per call and makes up to eight
// passes over the block; it survives as the 8-permutation reference
// behind ExecuteTaskBaseline, while the hot path uses digestOnePass.
func digestUniqueQuartet(j, dj *linalg.Matrix, ks, dks []*linalg.Matrix, shells []Shell, ia, ib, ic, id int, blk []float64) {
	sh := [4]*Shell{&shells[ia], &shells[ib], &shells[ic], &shells[id]}
	nb, nc, nd := sh[1].NumFuncs(), sh[2].NumFuncs(), sh[3].NumFuncs()
	orig := func(fa, fb, fc, fd int) float64 {
		return blk[((fa*nb+fb)*nc+fc)*nd+fd]
	}
	for _, p := range quartetPermutations(ia, ib, ic, id) {
		p := p
		get := func(fa, fb, fc, fd int) float64 {
			f := [4]int{fa, fb, fc, fd}
			// Position i of the permuted view holds original role p[i]; to
			// read the original block we place each permuted index back
			// into its original role.
			var g [4]int
			g[p[0]], g[p[1]], g[p[2]], g[p[3]] = f[0], f[1], f[2], f[3]
			return orig(g[0], g[1], g[2], g[3])
		}
		digestJK(j, dj, ks, dks, sh[p[0]], sh[p[1]], sh[p[2]], sh[p[3]], get)
	}
}
