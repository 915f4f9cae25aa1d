package chem

import (
	"errors"
	"fmt"
	"math"

	"execmodels/internal/linalg"
)

// SCFOptions configures the restricted Hartree–Fock driver.
type SCFOptions struct {
	MaxIter     int     // maximum SCF iterations (default 50)
	ConvDensity float64 // RMS density change threshold (default 1e-8)
	ConvEnergy  float64 // energy change threshold (default 1e-9)
	Screening   float64 // Schwarz screening threshold (default 1e-10)
	BlockSize   int     // bra-pair block size for the Fock workload (default 4)
	Damping     float64 // density damping factor in [0,1); 0 disables (default 0)

	// UseDIIS enables Pulay DIIS convergence acceleration: the Fock
	// matrix diagonalized each iteration is the error-minimizing linear
	// combination of the last DIISVectors Fock matrices.
	UseDIIS     bool
	DIISVectors int // subspace size (default 6)

	// Guess selects the starting density: "core" (diagonalize the core
	// Hamiltonian, the default) or "sad" (superposition of atomic
	// densities — each atom's electrons spread evenly over its own
	// functions, usually fewer iterations on clusters).
	Guess string

	// OnIteration, if non-nil, is invoked after every completed SCF
	// iteration with that iteration's state. Returning a non-nil error
	// interrupts the run: RunSCF stops immediately and returns the
	// partial result together with an error wrapping ErrSCFInterrupted
	// and the callback's error. Long-running drivers use this hook to
	// stream progress and to checkpoint resumable state.
	OnIteration func(p SCFProgress) error

	// Resume, if non-nil, restarts a run from a previously checkpointed
	// iteration instead of a fresh guess: the density and energy must be
	// the ones reported by OnIteration for Resume.Iteration. Iteration
	// numbering continues from there (MaxIter counts total iterations,
	// including the checkpointed ones). DIIS history is not part of the
	// checkpoint — the subspace is rebuilt from scratch after a resume,
	// so the post-restart trajectory may differ from the uninterrupted
	// one, but both converge to the same fixed point.
	Resume *SCFRestart
}

// SCFProgress is the state of one completed SCF iteration, as delivered
// to SCFOptions.OnIteration. D is the density that enters the next
// iteration; together with Iter and Energy it is exactly the state a
// checkpoint needs for SCFOptions.Resume.
type SCFProgress struct {
	Iter   int
	Energy float64 // total energy (electronic + nuclear) after this iteration
	DeltaE float64 // |energy change| vs the previous iteration
	RMSD   float64 // RMS density change vs the previous iteration
	D      *linalg.Matrix
}

// SCFRestart is the checkpointed state RunSCF resumes from.
type SCFRestart struct {
	Iteration int            // last completed iteration
	Energy    float64        // total energy after that iteration
	D         *linalg.Matrix // density entering iteration Iteration+1
}

// ErrSCFInterrupted is wrapped by RunSCF's error when an OnIteration
// callback aborts the run. The returned *SCFResult still holds the last
// completed iteration's state.
var ErrSCFInterrupted = errors.New("chem: SCF run interrupted")

// ErrSCFDiverged is wrapped by RunSCF's and RunUHF's error when an
// iteration's total energy is NaN or infinite: the run stops at that
// iteration instead of carrying the non-finite state to MaxIter. The
// returned result still holds the last finite iteration's state.
var ErrSCFDiverged = errors.New("chem: SCF energy not finite")

// checkFinite returns an error wrapping ErrSCFDiverged when the total
// energy e of iteration iter is NaN or ±Inf.
func checkFinite(e float64, iter int) error {
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return fmt.Errorf("%w: energy %v at iteration %d", ErrSCFDiverged, e, iter)
	}
	return nil
}

func (o *SCFOptions) setDefaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.ConvDensity == 0 {
		o.ConvDensity = 1e-8
	}
	if o.ConvEnergy == 0 {
		o.ConvEnergy = 1e-9
	}
	if o.Screening == 0 {
		o.Screening = 1e-10
	}
	if o.BlockSize == 0 {
		o.BlockSize = 4
	}
}

// SCFResult holds the converged (or final) state of an SCF run.
type SCFResult struct {
	Energy     float64 // total energy (electronic + nuclear repulsion)
	Electronic float64
	Nuclear    float64
	Iterations int
	Converged  bool
	NOcc       int            // doubly-occupied orbital count
	OrbitalE   []float64      // orbital energies, ascending
	C          *linalg.Matrix // MO coefficients (columns)
	D          *linalg.Matrix // final density matrix
	F          *linalg.Matrix // final Fock matrix
	Workload   *FockWorkload  // the task decomposition used for Fock builds
}

// FockBuilder computes a Fock matrix from a density matrix. The default is
// the serial reference implementation; the scheduling study substitutes
// parallel executors with identical semantics.
type FockBuilder func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix

// RunSCF performs a restricted closed-shell Hartree–Fock calculation on
// mol in basis bs. If build is nil the serial reference Fock builder is
// used. An iteration whose total energy is not finite ends the run with
// an error wrapping ErrSCFDiverged.
func RunSCF(mol *Molecule, bs *BasisSet, opts SCFOptions, build FockBuilder) (*SCFResult, error) {
	opts.setDefaults()
	ne := mol.NumElectrons()
	if ne%2 != 0 {
		return nil, fmt.Errorf("chem: RHF requires an even electron count, got %d", ne)
	}
	nocc := ne / 2
	if nocc > bs.NBF {
		return nil, fmt.Errorf("chem: %d occupied orbitals exceed %d basis functions", nocc, bs.NBF)
	}
	if build == nil {
		build = func(w *FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			return w.BuildFock(h, d)
		}
	}

	s := Overlap(bs)
	h := CoreHamiltonian(bs, mol)
	x := linalg.InvSqrtSym(s, 1e-10)
	w := BuildFockWorkload(bs, opts.Screening, opts.BlockSize)
	enuc := mol.NuclearRepulsion()

	var d *linalg.Matrix
	startIter := 1
	var ePrev float64
	if opts.Resume != nil {
		if opts.Resume.D == nil || opts.Resume.D.Rows != bs.NBF || opts.Resume.D.Cols != bs.NBF {
			return nil, fmt.Errorf("chem: resume density shape does not match %d basis functions", bs.NBF)
		}
		if opts.Resume.Iteration < 1 {
			return nil, fmt.Errorf("chem: resume iteration %d < 1", opts.Resume.Iteration)
		}
		d = opts.Resume.D.Clone()
		ePrev = opts.Resume.Energy
		startIter = opts.Resume.Iteration + 1
	} else {
		switch opts.Guess {
		case "", "core":
			d, _, _ = densityFromFock(h, x, nocc)
		case "sad":
			d = sadGuess(bs, mol)
		default:
			return nil, fmt.Errorf("chem: unknown guess %q (core|sad)", opts.Guess)
		}
	}

	res := &SCFResult{Nuclear: enuc, Workload: w, NOcc: nocc}
	res.Iterations = startIter - 1
	var diis *diisState
	if opts.UseDIIS {
		diis = newDIIS(opts.DIISVectors)
	}
	for iter := startIter; iter <= opts.MaxIter; iter++ {
		f := build(w, h, d)
		eElec := electronicEnergy(d, h, f)
		if err := checkFinite(eElec+enuc, iter); err != nil {
			return res, err
		}

		fDiag := f
		if diis != nil {
			diis.push(f, diisError(f, d, s, x))
			if fx := diis.extrapolate(); fx != nil {
				fDiag = fx
			}
		}

		dNew, c, orbE := densityFromFock(fDiag, x, nocc)
		if opts.Damping > 0 && iter > 1 {
			dNew.Scale(1-opts.Damping).AddScaled(opts.Damping, d)
		}
		rms := rmsDiff(dNew, d)
		dE := math.Abs(eElec + enuc - ePrev)
		ePrev = eElec + enuc

		res.Energy = ePrev
		res.Electronic = eElec
		res.Iterations = iter
		res.OrbitalE = orbE
		res.C = c
		res.F = f
		res.D = dNew
		d = dNew

		if opts.OnIteration != nil {
			if err := opts.OnIteration(SCFProgress{
				Iter: iter, Energy: ePrev, DeltaE: dE, RMSD: rms, D: dNew,
			}); err != nil {
				return res, fmt.Errorf("%w after iteration %d: %w", ErrSCFInterrupted, iter, err)
			}
		}
		if iter > 1 && rms < opts.ConvDensity && dE < opts.ConvEnergy {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// densityFromFock diagonalizes F in the orthogonal basis defined by X and
// returns the closed-shell density D = 2 C_occ C_occᵀ, the MO coefficient
// matrix, and the orbital energies.
func densityFromFock(f, x *linalg.Matrix, nocc int) (*linalg.Matrix, *linalg.Matrix, []float64) {
	fp := linalg.TripleProduct(x, f)
	orbE, cp := linalg.EigenSym(fp)
	c := linalg.MatMul(x, cp)
	n := c.Rows
	d := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			for k := 0; k < nocc; k++ {
				v += c.At(i, k) * c.At(j, k)
			}
			d.Set(i, j, 2*v)
		}
	}
	return d, c, orbE
}

// electronicEnergy returns E_elec = ½ Σ_{μν} D_{μν} (H_{μν} + F_{μν}).
func electronicEnergy(d, h, f *linalg.Matrix) float64 {
	var e float64
	for i := range d.Data {
		e += d.Data[i] * (h.Data[i] + f.Data[i])
	}
	return 0.5 * e
}

// sadGuess builds a superposition-of-atomic-densities starting density:
// a diagonal matrix with each atom's electron count spread evenly over
// that atom's basis functions. Since every function has unit self-overlap
// this satisfies Tr(D·S) ≈ N up to off-diagonal overlap, and it starts
// the iteration from neutral atoms instead of the bare-nucleus core
// guess.
func sadGuess(bs *BasisSet, mol *Molecule) *linalg.Matrix {
	d := linalg.NewMatrix(bs.NBF, bs.NBF)
	funcsOfAtom := make([]int, len(mol.Atoms))
	for _, sh := range bs.Shells {
		funcsOfAtom[sh.Atom] += sh.NumFuncs()
	}
	for _, sh := range bs.Shells {
		per := float64(mol.Atoms[sh.Atom].Z) / float64(funcsOfAtom[sh.Atom])
		for f := 0; f < sh.NumFuncs(); f++ {
			i := sh.Start + f
			d.Set(i, i, per)
		}
	}
	return d
}

func rmsDiff(a, b *linalg.Matrix) float64 {
	var s float64
	for i := range a.Data {
		diff := a.Data[i] - b.Data[i]
		s += diff * diff
	}
	return math.Sqrt(s / float64(len(a.Data)))
}
