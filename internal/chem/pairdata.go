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
// The McMurchie–Davidson contraction runs in two steps per bra primitive
// pair p. The ket step folds every ket primitive pair q into
//
//	W[cd][h] = Σ_q Σ_{h'∈box(cd)} E^q_{h'} · (-1)^{|h'|} pref_pq R^{pq}_{h+h'}
//
// over the bra Hermite triangle h, and the bra step then adds
// blk[ab][cd] += Σ_{h∈box(ab)} E^p_h · W[cd][h]. Each primitive quartet
// thus costs one pass over the ket boxes instead of the full
// bra-box × ket-box product per Cartesian component quartet.
func ERIBlockPairInto(bra, ket *PairData, s *ERIScratch) []float64 {
	a, b, c, d := bra.A, bra.B, ket.A, ket.B
	bc, kc := bra.cls, ket.cls
	nab, ncd := len(bc.box)-1, len(kc.box)-1
	nhb, nhk := len(bc.herm), len(kc.herm)
	nbb, nbk := len(bc.h), len(kc.h)
	ltot := a.L + b.L + c.L + d.L
	n1 := ltot + 1

	size, nw := nab*ncd, ncd*nhb
	if need := size + nw + nhk*nhb; cap(s.buf) < need {
		s.buf = make([]float64, need) //lint:ignore allocfree cold start: the block and contraction buffer grows to the largest quartet class once, then every call reuses it
	}
	s.rw.grow(ltot)
	blk := s.buf[:size:size]
	w := s.buf[size : size+nw]
	x := s.buf[size+nw : size+nw+nhk*nhb]
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
	if a.L >= 2 || b.L >= 2 || c.L >= 2 || d.L >= 2 {
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
	return blk
}
