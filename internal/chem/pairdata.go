package chem

import "math"

// piPow25 is the π^{5/2} prefactor constant of the Coulomb Gaussian
// product theorem, hoisted out of the primitive-quartet loop.
var piPow25 = math.Pow(math.Pi, 2.5)

// hermTUV is one Hermite Gaussian index (t, u, v).
type hermTUV struct{ t, u, v int }

// pairClass is the Hermite-box layout shared by every shell pair of
// angular momenta (la, lb). Cartesian pair ab = ia·nb + ib (components
// in Components order) expands into the Hermite Gaussians of its box,
// t <= Ax+Bx, u <= Ay+By, v <= Az+Bz; entries box[ab] .. box[ab+1]-1 of
// a primitive pair's slice in PairData.e hold the products
// E_t^{Ax,Bx}·E_u^{Ay,By}·E_v^{Az,Bz}, and h gives each entry's index
// into herm, the pair's Hermite triangle t+u+v <= la+lb.
type pairClass struct {
	herm []hermTUV
	box  []int32 // len nab+1
	h    []int32 // len box[nab]: entries per primitive pair
}

// maxClassL bounds the precomputed pair classes: the basis sets shipped
// here stop at d shells. Higher angular momenta get a fresh class per
// NewPairData call.
const maxClassL = 2

var pairClasses = func() (tab [maxClassL + 1][maxClassL + 1]*pairClass) {
	for la := range tab {
		for lb := range tab[la] {
			tab[la][lb] = newPairClass(la, lb)
		}
	}
	return tab
}()

func classFor(la, lb int) *pairClass {
	if la <= maxClassL && lb <= maxClassL {
		return pairClasses[la][lb]
	}
	return newPairClass(la, lb)
}

// hermiteCount is the size of the Hermite triangle t+u+v <= l.
func hermiteCount(l int) int { return (l + 1) * (l + 2) * (l + 3) / 6 }

func newPairClass(la, lb int) *pairClass {
	l := la + lb
	n1 := l + 1
	cls := &pairClass{herm: make([]hermTUV, 0, hermiteCount(l))}
	index := make([]int32, n1*n1*n1)
	for t := 0; t <= l; t++ {
		for u := 0; u <= l-t; u++ {
			for v := 0; v <= l-t-u; v++ {
				index[(t*n1+u)*n1+v] = int32(len(cls.herm))
				cls.herm = append(cls.herm, hermTUV{t, u, v})
			}
		}
	}
	for _, A := range Components(la) {
		for _, B := range Components(lb) {
			cls.box = append(cls.box, int32(len(cls.h)))
			for t := 0; t <= A.Lx+B.Lx; t++ {
				for u := 0; u <= A.Ly+B.Ly; u++ {
					for v := 0; v <= A.Lz+B.Lz; v++ {
						cls.h = append(cls.h, index[(t*n1+u)*n1+v])
					}
				}
			}
		}
	}
	cls.box = append(cls.box, int32(len(cls.h)))
	return cls
}

// pairPrim holds the primitive-pair quantities of one (primitive a,
// primitive b) combination of a shell pair: everything about the bra (or
// ket) charge distribution that does not depend on the partner pair.
type pairPrim struct {
	p      float64 // exponent sum
	P      Vec3    // Gaussian product center
	cab    float64 // contraction coefficient product
	ia, ib int     // primitive indices into A.Exps and B.Exps
}

// PairData caches the Hermite expansion of a shell pair. Computing it
// once per pair — instead of once per quartet — removes the dominant
// redundant work of the ERI engine: each pair appears in O(#pairs)
// quartets. The expansion is stored as one contiguous slice of Hermite
// boxes (E_t·E_u·E_v products per Cartesian component pair), one run of
// len(cls.h) values per primitive pair, laid out by the class table
// shared by all pairs of the same angular momenta.
type PairData struct {
	A, B  *Shell
	cls   *pairClass
	prims []pairPrim
	e     []float64
}

// NewPairData precomputes the Hermite boxes for the shell pair (a, b).
func NewPairData(a, b *Shell) *PairData {
	ab := a.Center.Sub(b.Center)
	cls := classFor(a.L, b.L)
	n, nbox := len(a.Exps)*len(b.Exps), len(cls.h)
	pd := &PairData{
		A: a, B: b, cls: cls,
		prims: make([]pairPrim, 0, n),
		e:     make([]float64, n*nbox),
	}
	ca, cb := Components(a.L), Components(b.L)
	var ex, ey, ez hermiteE
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			p := ea + eb
			ex.fill(a.L, b.L, ea, eb, ab.X)
			ey.fill(a.L, b.L, ea, eb, ab.Y)
			ez.fill(a.L, b.L, ea, eb, ab.Z)
			e := pd.e[len(pd.prims)*nbox:][:nbox]
			for i, A := range ca {
				for k, B := range cb {
					ik := i*len(cb) + k
					for j := cls.box[ik]; j < cls.box[ik+1]; j++ {
						tuv := cls.herm[cls.h[j]]
						e[j] = ex.at(A.Lx, B.Lx, tuv.t) * ey.at(A.Ly, B.Ly, tuv.u) * ez.at(A.Lz, B.Lz, tuv.v)
					}
				}
			}
			pd.prims = append(pd.prims, pairPrim{
				p:   p,
				P:   a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p)),
				cab: a.Coefs[pi] * b.Coefs[pj],
				ia:  pi,
				ib:  pj,
			})
		}
	}
	return pd
}

// primBound returns the screening factor of primitive pair i,
//
//	Q_p = |c_a c_b| · max|E_p box| · sqrt(2π^{5/2} / (p² √(2p))),
//
// the Schwarz factor sqrt([p|p]) of an s-type charge distribution
// carrying the box's largest E coefficient. For s-type pairs
// |[pq]| <= Q_p Q_q holds exactly; for higher angular momentum it is an
// estimate, which the margin of primScreenFactor covers.
func (pd *PairData) primBound(i int) float64 {
	nbox := len(pd.cls.h)
	var emax float64
	for _, v := range pd.e[i*nbox : (i+1)*nbox] {
		emax = math.Max(emax, math.Abs(v))
	}
	p := pd.prims[i].p
	return math.Abs(pd.prims[i].cab) * emax * math.Sqrt(2*piPow25/(p*p*math.Sqrt(2*p)))
}

// prune drops the primitive pairs whose primBound is below cut,
// compacting prims and e in place (order preserved), so every workload
// sharing pd sees the pruned set without a copy.
func (pd *PairData) prune(cut float64) {
	nbox := len(pd.cls.h)
	k := 0
	for i := range pd.prims {
		if pd.primBound(i) < cut {
			continue
		}
		if k != i {
			pd.prims[k] = pd.prims[i]
			copy(pd.e[k*nbox:(k+1)*nbox], pd.e[i*nbox:(i+1)*nbox])
		}
		k++
	}
	pd.prims = pd.prims[:k]
	pd.e = pd.e[:k*nbox]
}

// ERIBlockPair computes the (bra|ket) shell-quartet block from two
// precomputed pair datasets. The result layout matches
// ERIBlock(bra.A, bra.B, ket.A, ket.B).
//
// Each call allocates a fresh result (and workspace); the hot path uses
// ERIBlockPairInto with a reused ERIScratch instead.
func ERIBlockPair(bra, ket *PairData) []float64 {
	return ERIBlockPairInto(bra, ket, &ERIScratch{})
}

// ERIBlockPairInto is ERIBlockPair writing into the scratch arena s: the
// returned slice aliases s and stays valid only until the next call using
// s. With a warmed-up scratch the steady-state computation performs zero
// heap allocations.
//
// Quartets of total angular momentum la+lb+lc+ld <= 2 go to closed-form
// class kernels: eriSSSS for (ss|ss); eriKetSS for (X|ss) with
// la+lb = 1 or 2 — (ss|X) runs the same kernel with bra and ket
// swapped, since (ab|cd) = (cd|ab) and both blocks have the same
// layout; and eriSPSP for the four (sp|sp) orientations. Every higher
// class takes the generic two-step contraction, eriTwoStep.
func ERIBlockPairInto(bra, ket *PairData, s *ERIScratch) []float64 {
	lab, lcd := bra.A.L+bra.B.L, ket.A.L+ket.B.L
	var blk []float64
	if lab+lcd > maxClassKernelL {
		blk = eriTwoStep(bra, ket, s)
	} else {
		size := (len(bra.cls.box) - 1) * (len(ket.cls.box) - 1)
		blk = s.floats(size)[:size:size]
		clear(blk)
		switch {
		case lab+lcd == 0:
			eriSSSS(bra, ket, blk)
		case lcd == 0:
			eriKetSS(bra, ket, blk)
		case lab == 0:
			eriKetSS(ket, bra, blk)
		default:
			eriSPSP(bra, ket, blk)
		}
	}
	normalizeBlock(blk, bra.A, bra.B, ket.A, ket.B)
	return blk
}

// normalizeBlock applies the per-component normalization of Cartesian
// d and higher shells to an ERI block laid out as ERIBlock(a, b, c, d).
func normalizeBlock(blk []float64, a, b, c, d *Shell) {
	if a.L < 2 && b.L < 2 && c.L < 2 && d.L < 2 {
		return
	}
	normA, normB := ComponentNorms(a.L), ComponentNorms(b.L)
	normC, normD := ComponentNorms(c.L), ComponentNorms(d.L)
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

// eriTwoStep is the generic McMurchie–Davidson contraction behind
// ERIBlockPairInto, before component normalization. It runs in two steps
// per bra primitive pair p. The ket step folds every ket primitive pair q
// into
//
//	W[cd][h] = Σ_q Σ_{h'∈box(cd)} E^q_{h'} · (-1)^{|h'|} pref_pq R^{pq}_{h+h'}
//
// over the bra Hermite triangle h, and the bra step then adds
// blk[ab][cd] += Σ_{h∈box(ab)} E^p_h · W[cd][h]. Each primitive quartet
// thus costs one pass over the ket boxes instead of the full
// bra-box × ket-box product per Cartesian component quartet.
func eriTwoStep(bra, ket *PairData, s *ERIScratch) []float64 {
	a, b, c, d := bra.A, bra.B, ket.A, ket.B
	bc, kc := bra.cls, ket.cls
	nab, ncd := len(bc.box)-1, len(kc.box)-1
	nhb, nhk := len(bc.herm), len(kc.herm)
	nbb, nbk := len(bc.h), len(kc.h)
	ltot := a.L + b.L + c.L + d.L
	n1 := ltot + 1

	size, nw := nab*ncd, ncd*nhb
	buf := s.floats(size + nw + nhk*nhb)
	s.rw.grow(ltot)
	blk := buf[:size:size]
	w := buf[size : size+nw]
	x := buf[size+nw : size+nw+nhk*nhb]
	clear(blk)

	for bp := range bra.prims {
		pp := &bra.prims[bp]
		clear(w)
		for kp := range ket.prims {
			qq := &ket.prims[kp]
			alpha := pp.p * qq.p / (pp.p + qq.p)
			r := s.rw.compute(ltot, alpha, pp.P.Sub(qq.P)).data
			pref := pp.cab * qq.cab * 2 * piPow25 /
				(pp.p * qq.p * math.Sqrt(pp.p+qq.p))

			// x[h'][h] = (-1)^{|h'|} pref R_{h+h'}
			for hk, k := range kc.herm {
				f := pref
				if (k.t+k.u+k.v)&1 == 1 {
					f = -pref
				}
				base := (k.t*n1+k.u)*n1 + k.v
				row := x[hk*nhb : (hk+1)*nhb]
				for hb, h := range bc.herm {
					row[hb] = f * r[base+(h.t*n1+h.u)*n1+h.v]
				}
			}
			ek := ket.e[kp*nbk : (kp+1)*nbk]
			for cd := 0; cd < ncd; cd++ {
				wrow := w[cd*nhb : (cd+1)*nhb]
				for j := kc.box[cd]; j < kc.box[cd+1]; j++ {
					e := ek[j]
					if e == 0 {
						continue
					}
					xrow := x[int(kc.h[j])*nhb:][:nhb]
					for hb := range wrow {
						wrow[hb] += e * xrow[hb]
					}
				}
			}
		}

		eb := bra.e[bp*nbb : (bp+1)*nbb]
		for ab := 0; ab < nab; ab++ {
			out := blk[ab*ncd : (ab+1)*ncd]
			for j := bc.box[ab]; j < bc.box[ab+1]; j++ {
				e := eb[j]
				if e == 0 {
					continue
				}
				h := int(bc.h[j])
				for cd := range out {
					out[cd] += e * w[cd*nhb+h]
				}
			}
		}
	}
	return blk
}

// maxClassKernelL is the largest total angular momentum la+lb+lc+ld
// served by a closed-form class kernel instead of eriTwoStep.
const maxClassKernelL = 2

// hermiteRLow writes pref·R^0_{tuv}(α, PQ) for every t+u+v <= l, l <= 2,
// into r in pairClass triangle order — (000) for l = 0; (000) (001)
// (010) (100) for l = 1; (000) (001) (002) (010) (011) (020) (100)
// (101) (110) (200) for l = 2 — straight from F_0..F_l:
//
//	R_0 = F_0,  R_i = X_i·R^1,  R_ij = δ_ij·R^1 + X_i X_j·R^2,  R^n = (-2α)^n F_n
//
// with no auxiliary-order cubes.
//
//hotpath:allocfree
func hermiteRLow(l int, alpha, pref float64, pq Vec3, r *[10]float64) {
	var f [maxClassKernelL + 1]float64
	Boys(l, alpha*pq.Norm2(), f[:l+1])
	r[0] = pref * f[0]
	if l == 0 {
		return
	}
	r1 := -2 * alpha * pref * f[1]
	if l == 1 {
		r[1], r[2], r[3] = pq.Z*r1, pq.Y*r1, pq.X*r1
		return
	}
	r2 := 4 * alpha * alpha * pref * f[2]
	x2, y2, z2 := pq.X*r2, pq.Y*r2, pq.Z*r2
	r[1], r[2] = pq.Z*r1, r1+pq.Z*z2
	r[3], r[4], r[5] = pq.Y*r1, pq.Y*z2, r1+pq.Y*y2
	r[6], r[7], r[8], r[9] = pq.X*r1, pq.X*z2, pq.X*y2, r1+pq.X*x2
}

// eriSSSS is the (ss|ss) class kernel: one integral, R_0 = F_0, and the
// ket primitives fold into a scalar per bra primitive pair.
//
//hotpath:allocfree
func eriSSSS(bra, ket *PairData, blk []float64) {
	var f [1]float64
	for bp := range bra.prims {
		pp := &bra.prims[bp]
		var acc float64
		for kp := range ket.prims {
			qq := &ket.prims[kp]
			inv := 1 / (pp.p + qq.p)
			Boys(0, pp.p*qq.p*inv*pp.P.Sub(qq.P).Norm2(), f[:])
			acc += ket.e[kp] * qq.cab / qq.p * math.Sqrt(inv) * f[0]
		}
		blk[0] += pp.cab * 2 * piPow25 / pp.p * bra.e[bp] * acc
	}
}

// eriKetSS is the class kernel for (X|ss) quartets, la+lb <= 2 and an
// s-s ket pair; eriSSSS is its la+lb = 0 case without the R array. The
// ket box is the single E_0 of each ket primitive pair, so for each bra
// primitive pair p the ket primitives fold into the R-weighted
// accumulator acc[h] = Σ_q E^q_0 pref_pq R^{pq}_h over the bra Hermite
// triangle, and the bra box is applied once:
// blk[ab] += Σ_{h∈box(ab)} E^p_h acc[h].
//
//hotpath:allocfree
func eriKetSS(bra, ket *PairData, blk []float64) {
	bc := bra.cls
	l := bra.A.L + bra.B.L
	nh, nbb := len(bc.herm), len(bc.h)
	for bp := range bra.prims {
		pp := &bra.prims[bp]
		var acc, r [10]float64
		for kp := range ket.prims {
			qq := &ket.prims[kp]
			inv := 1 / (pp.p + qq.p)
			hermiteRLow(l, pp.p*qq.p*inv, ket.e[kp]*qq.cab/qq.p*math.Sqrt(inv), pp.P.Sub(qq.P), &r)
			for h := range acc[:nh] {
				acc[h] += r[h]
			}
		}
		f := pp.cab * 2 * piPow25 / pp.p
		eb := bra.e[bp*nbb : (bp+1)*nbb]
		for ab := range blk {
			var sum float64
			for j := bc.box[ab]; j < bc.box[ab+1]; j++ {
				sum += eb[j] * acc[bc.h[j]]
			}
			blk[ab] += f * sum
		}
	}
}

// eriSPSP is the class kernel for (sp|sp), (sp|ps), (ps|sp) and (ps|ps).
// Both pairs have three components, and component k (x, y, z) has a
// two-entry box: E_0 at Hermite (000), then E_1 along axis k, whose
// order-1 triangle index is 3-k. For each bra primitive pair p the ket
// primitives fold into
//
//	W[k][h] = Σ_q pref_pq (E^q_{k,0} R^{pq}_h − E^q_{k,1} R^{pq}_{h+e_k})
//
// over the bra triangle h, read straight from the order-2 R values, and
// the bra box is applied once per p.
//
//hotpath:allocfree
func eriSPSP(bra, ket *PairData, blk []float64) {
	var r [10]float64
	for bp := range bra.prims {
		pp := &bra.prims[bp]
		var w [3][4]float64
		for kp := range ket.prims {
			qq := &ket.prims[kp]
			inv := 1 / (pp.p + qq.p)
			hermiteRLow(2, pp.p*qq.p*inv, qq.cab/qq.p*math.Sqrt(inv), pp.P.Sub(qq.P), &r)
			// R_h and R_{h+e_k} over h = (000) (001) (010) (100).
			base := [4]float64{r[0], r[1], r[3], r[6]}
			shifted := [3][4]float64{{r[6], r[7], r[8], r[9]}, {r[3], r[4], r[5], r[8]}, {r[1], r[2], r[4], r[7]}}
			ek := ket.e[6*kp : 6*kp+6]
			for k := range w {
				e0, e1 := ek[2*k], ek[2*k+1]
				for h := range w[k] {
					w[k][h] += e0*base[h] - e1*shifted[k][h]
				}
			}
		}
		f := pp.cab * 2 * piPow25 / pp.p
		eb := bra.e[6*bp : 6*bp+6]
		for m := 0; m < 3; m++ {
			e0, e1 := f*eb[2*m], f*eb[2*m+1]
			for cd := range w {
				blk[3*m+cd] += e0*w[cd][0] + e1*w[cd][3-m]
			}
		}
	}
}
