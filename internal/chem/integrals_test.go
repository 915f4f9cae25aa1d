package chem

import (
	"math"
	"math/rand"
	"testing"

	"execmodels/internal/linalg"
)

func mustBasis(t testing.TB, name string, mol *Molecule) *BasisSet {
	t.Helper()
	bs, err := NewBasis(name, mol)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestBasisUnknownName(t *testing.T) {
	if _, err := NewBasis("nope", H2(1.4)); err == nil {
		t.Fatal("expected error for unknown basis")
	}
}

func TestBasisUnknownElement(t *testing.T) {
	mol := &Molecule{Atoms: []Atom{{Z: 92}}}
	if _, err := NewBasis("sto-3g", mol); err == nil {
		t.Fatal("expected error for unsupported element")
	}
}

func TestBasisSizes(t *testing.T) {
	cases := []struct {
		basis string
		mol   *Molecule
		nbf   int
	}{
		{"sto-3g", H2(1.4), 2},
		{"sto-3g", Water(), 7}, // O: 1s+2s+2p(3) = 5, 2 H
		{"6-31g", H2(1.4), 4},  // 2 s shells per H
		{"6-31g", Water(), 13}, // O: 3s + 2*3p = 9, plus 4 H functions
	}
	for _, c := range cases {
		bs := mustBasis(t, c.basis, c.mol)
		if bs.NBF != c.nbf {
			t.Errorf("%s/%s: NBF = %d, want %d", c.basis, c.mol.Name, bs.NBF, c.nbf)
		}
	}
}

func TestComponents(t *testing.T) {
	if n := len(Components(0)); n != 1 {
		t.Fatalf("s components = %d", n)
	}
	if n := len(Components(1)); n != 3 {
		t.Fatalf("p components = %d", n)
	}
	if n := len(Components(2)); n != 6 {
		t.Fatalf("d components = %d", n)
	}
}

func TestOverlapDiagonalIsOne(t *testing.T) {
	for _, name := range BasisNames() {
		bs := mustBasis(t, name, Water())
		s := Overlap(bs)
		for i := 0; i < bs.NBF; i++ {
			if math.Abs(s.At(i, i)-1) > 1e-10 {
				t.Errorf("%s: S[%d][%d] = %v, want 1", name, i, i, s.At(i, i))
			}
		}
		if !s.IsSymmetric(1e-12) {
			t.Errorf("%s: overlap not symmetric", name)
		}
	}
}

// Szabo & Ostlund table 3.5-ish: H2/STO-3G at R = 1.4 bohr has
// S12 ≈ 0.6593, T11 ≈ 0.7600, (11|11) ≈ 0.7746, (11|22)... etc.
func TestH2STO3GKnownIntegrals(t *testing.T) {
	bs := mustBasis(t, "sto-3g", H2(1.4))
	s := Overlap(bs)
	if math.Abs(s.At(0, 1)-0.6593) > 5e-4 {
		t.Errorf("S12 = %v, want ~0.6593", s.At(0, 1))
	}
	k := Kinetic(bs)
	if math.Abs(k.At(0, 0)-0.7600) > 5e-4 {
		t.Errorf("T11 = %v, want ~0.7600", k.At(0, 0))
	}
	if math.Abs(k.At(0, 1)-0.2365) > 5e-4 {
		t.Errorf("T12 = %v, want ~0.2365", k.At(0, 1))
	}

	a, b := &bs.Shells[0], &bs.Shells[1]
	eri1111 := ERIBlock(a, a, a, a)[0]
	if math.Abs(eri1111-0.7746) > 5e-4 {
		t.Errorf("(11|11) = %v, want ~0.7746", eri1111)
	}
	eri1122 := ERIBlock(a, a, b, b)[0]
	if math.Abs(eri1122-0.5697) > 5e-4 {
		t.Errorf("(11|22) = %v, want ~0.5697", eri1122)
	}
	eri2111 := ERIBlock(b, a, a, a)[0]
	if math.Abs(eri2111-0.4441) > 5e-4 {
		t.Errorf("(21|11) = %v, want ~0.4441", eri2111)
	}
	eri2121 := ERIBlock(b, a, b, a)[0]
	if math.Abs(eri2121-0.2970) > 5e-4 {
		t.Errorf("(21|21) = %v, want ~0.2970", eri2121)
	}
}

// Hydrogen fluoride, STO-3G: E_RHF ≈ -98.57 hartree at R ≈ 0.917 Å.
func TestSCFHydrogenFluoride(t *testing.T) {
	mol := &Molecule{
		Name: "HF",
		Atoms: []Atom{
			{Z: 9},
			{Z: 1, Pos: Vec3{Z: 0.917 * angstrom}},
		},
	}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{UseDIIS: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Energy > -98.4 || res.Energy < -98.8 {
		t.Errorf("E(HF) = %.5f, want ≈ -98.57", res.Energy)
	}
}

// A helium atom: two electrons in one 1s function, E ≈ -2.8078 hartree
// for STO-3G.
func TestSCFHelium(t *testing.T) {
	mol := &Molecule{Name: "He", Atoms: []Atom{{Z: 2}}}
	bs := mustBasis(t, "sto-3g", mol)
	res, err := RunSCF(mol, bs, SCFOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	if math.Abs(res.Energy-(-2.8078)) > 5e-3 {
		t.Errorf("E(He) = %.5f, want ≈ -2.8078", res.Energy)
	}
}

// Kinetic and nuclear-attraction integrals for a single H atom, STO-3G:
// <T> = 0.7600, <V> = -1.2266 (literature values for the 1s STO-3G fit).
func TestHAtomOneElectron(t *testing.T) {
	mol := &Molecule{Name: "H", Atoms: []Atom{{Z: 1}}}
	bs := mustBasis(t, "sto-3g", mol)
	k := Kinetic(bs)
	v := NuclearAttraction(bs, mol)
	if math.Abs(k.At(0, 0)-0.76003) > 1e-4 {
		t.Errorf("T = %v", k.At(0, 0))
	}
	if math.Abs(v.At(0, 0)+1.22661) > 1e-4 {
		t.Errorf("V = %v", v.At(0, 0))
	}
}

// ERI 8-fold permutational symmetry on a molecule with p functions.
func TestERIPermutationSymmetry(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	// Pick shells covering s and p angular momenta.
	quads := [][4]int{{0, 1, 2, 3}, {2, 2, 3, 4}, {0, 2, 2, 4}}
	for _, q := range quads {
		a, b, c, d := &bs.Shells[q[0]], &bs.Shells[q[1]], &bs.Shells[q[2]], &bs.Shells[q[3]]
		na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
		abcd := ERIBlock(a, b, c, d)
		bacd := ERIBlock(b, a, c, d)
		cdab := ERIBlock(c, d, a, b)
		abdc := ERIBlock(a, b, d, c)
		for fa := 0; fa < na; fa++ {
			for fb := 0; fb < nb; fb++ {
				for fc := 0; fc < nc; fc++ {
					for fd := 0; fd < nd; fd++ {
						v := abcd[((fa*nb+fb)*nc+fc)*nd+fd]
						if w := bacd[((fb*na+fa)*nc+fc)*nd+fd]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (ba|cd): %v %v", v, w)
						}
						if w := cdab[((fc*nd+fd)*na+fa)*nb+fb]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (cd|ab): %v %v", v, w)
						}
						if w := abdc[((fa*nb+fb)*nd+fd)*nc+fc]; math.Abs(v-w) > 1e-10 {
							t.Fatalf("(ab|cd) != (ab|dc): %v %v", v, w)
						}
					}
				}
			}
		}
	}
}

// (ab|ab) must be non-negative (it is a self-repulsion).
func TestERIDiagonalPositive(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		a, b := &bs.Shells[i], &bs.Shells[j]
		blk := ERIBlock(a, b, a, b)
		na, nb := a.NumFuncs(), b.NumFuncs()
		for fa := 0; fa < na; fa++ {
			for fb := 0; fb < nb; fb++ {
				if v := blk[((fa*nb+fb)*na+fa)*nb+fb]; v < -1e-12 {
					t.Fatalf("(ab|ab) = %v < 0 for shells %d,%d", v, i, j)
				}
			}
		}
	}
}

// Cauchy–Schwarz: |(ab|cd)| <= Q_ab * Q_cd for every element.
func TestSchwarzInequality(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	pairs := SchwarzBounds(bs)
	bound := make(map[[2]int]float64)
	for _, p := range pairs {
		bound[[2]int{p.I, p.J}] = p.Bound
	}
	q := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return bound[[2]int{i, j}]
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		k, l := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
		blk := ERIBlock(&bs.Shells[i], &bs.Shells[j], &bs.Shells[k], &bs.Shells[l])
		var mx float64
		for _, v := range blk {
			if math.Abs(v) > mx {
				mx = math.Abs(v)
			}
		}
		if lim := q(i, j)*q(k, l) + 1e-10; mx > lim {
			t.Fatalf("quartet (%d%d|%d%d): max %v exceeds Schwarz bound %v", i, j, k, l, mx, lim)
		}
	}
}

func TestSignificantPairsFilters(t *testing.T) {
	bs := mustBasis(t, "sto-3g", WaterCluster(4, 1))
	pairs := SchwarzBounds(bs)
	all := SignificantPairs(pairs, 0)
	if len(all) != len(pairs) {
		t.Fatal("threshold 0 should keep everything")
	}
	some := SignificantPairs(pairs, 1e-8)
	if len(some) >= len(pairs) {
		t.Fatalf("threshold 1e-8 kept all %d pairs of a spread-out cluster", len(pairs))
	}
	if len(some) == 0 {
		t.Fatal("threshold 1e-8 dropped everything")
	}
}

// The nuclear attraction matrix must be strictly negative on the diagonal
// (electron-nucleus attraction).
func TestNuclearAttractionNegativeDiagonal(t *testing.T) {
	mol := Water()
	bs := mustBasis(t, "sto-3g", mol)
	v := NuclearAttraction(bs, mol)
	for i := 0; i < bs.NBF; i++ {
		if v.At(i, i) >= 0 {
			t.Fatalf("V[%d][%d] = %v", i, i, v.At(i, i))
		}
	}
	if !v.IsSymmetric(1e-10) {
		t.Fatal("V not symmetric")
	}
}

// Kinetic energy matrix must be positive definite.
func TestKineticPositiveDefinite(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	k := Kinetic(bs)
	vals, _ := linalg.EigenSym(k)
	if vals[0] <= 0 {
		t.Fatalf("smallest kinetic eigenvalue %v", vals[0])
	}
}

// Overlap matrix must be positive definite (basis is linearly independent).
func TestOverlapPositiveDefinite(t *testing.T) {
	bs := mustBasis(t, "6-31g", Water())
	s := Overlap(bs)
	vals, _ := linalg.EigenSym(s)
	if vals[0] <= 0 {
		t.Fatalf("smallest overlap eigenvalue %v", vals[0])
	}
}

// The pair-data-cached ERI path must agree with the direct path,
// including d shells: 15 random quartets per basis, then every
// (la,lb,lc,ld) shell class present in water 6-31G* (up to three
// quartets each, drawn in a seeded order so the centers vary).
func TestERIBlockPairMatchesDirect(t *testing.T) {
	mol := Water()
	check := func(basis string, bs *BasisSet, i, j, k, l int) {
		t.Helper()
		a, b, c, d := &bs.Shells[i], &bs.Shells[j], &bs.Shells[k], &bs.Shells[l]
		direct := ERIBlock(a, b, c, d)
		cached := ERIBlockPair(NewPairData(a, b), NewPairData(c, d))
		if len(direct) != len(cached) {
			t.Fatalf("%s: block sizes differ", basis)
		}
		for x := range direct {
			if math.Abs(direct[x]-cached[x]) > 1e-13 {
				t.Fatalf("%s quartet (%d%d|%d%d): element %d differs: %v vs %v",
					basis, i, j, k, l, x, direct[x], cached[x])
			}
		}
	}
	for _, basis := range []string{"sto-3g", "6-31g*"} {
		bs := mustBasis(t, basis, mol)
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 15; trial++ {
			i, j := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
			k, l := rng.Intn(len(bs.Shells)), rng.Intn(len(bs.Shells))
			check(basis, bs, i, j, k, l)
		}
	}

	bs := mustBasis(t, "6-31g*", mol)
	n := len(bs.Shells)
	present := map[int]bool{}
	for i := range bs.Shells {
		present[bs.Shells[i].L] = true
	}
	perClass := map[[4]int]int{}
	rng := rand.New(rand.NewSource(9))
	for _, q := range rng.Perm(n * n * n * n) {
		i, j, k, l := q/(n*n*n), q/(n*n)%n, q/n%n, q%n
		cl := [4]int{bs.Shells[i].L, bs.Shells[j].L, bs.Shells[k].L, bs.Shells[l].L}
		if perClass[cl] == 3 {
			continue
		}
		perClass[cl]++
		check("6-31g*", bs, i, j, k, l)
	}
	if want := len(present) * len(present) * len(present) * len(present); len(perClass) != want {
		t.Fatalf("covered %d shell classes, want all %d", len(perClass), want)
	}
}

func TestERIBlockFlopsPositiveAndMonotone(t *testing.T) {
	bs := mustBasis(t, "sto-3g", Water())
	var sShell, pShell *Shell
	for i := range bs.Shells {
		if bs.Shells[i].L == 0 && sShell == nil {
			sShell = &bs.Shells[i]
		}
		if bs.Shells[i].L == 1 && pShell == nil {
			pShell = &bs.Shells[i]
		}
	}
	fs := ERIBlockFlops(sShell, sShell, sShell, sShell)
	fp := ERIBlockFlops(pShell, pShell, pShell, pShell)
	if fs <= 0 || fp <= fs {
		t.Fatalf("flops model: ssss=%v pppp=%v", fs, fp)
	}
}
