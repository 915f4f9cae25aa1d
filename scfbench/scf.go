package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
	"execmodels/internal/serve"
)

// Correctness tolerances against the serial reference path.
const (
	fockTol   = 1e-11 // max |F - F_serial| at the converged density
	energyTol = 1e-9  // |E - E_serial| in hartree
)

// scfSpec fixes an SCF workload: a water cluster in a basis, solved with
// one core scheduler policy on nproc workers.
type scfSpec struct {
	waters   int    // (H2O)n
	basis    string // chem.NewBasis name
	geomSeed int64  // base cluster geometry (chem.WaterCluster seed)
	policy   string // core.SchedulerByName policy
}

// buildFunc runs one Fock build through a wall-clock scheduler. Tests
// substitute a deliberately wrong one to prove the verdict bites.
type buildFunc func(ws *core.WallScheduler, fw *chem.FockWorkload, h, d *linalg.Matrix) (*core.WallResult, error)

func schedBuild(ws *core.WallScheduler, fw *chem.FockWorkload, h, d *linalg.Matrix) (*core.WallResult, error) {
	return ws.Build(fw, h, d)
}

// scfCase is one run's generated SCF inputs.
type scfCase struct {
	spec    scfSpec
	mol     *chem.Molecule
	bs      *chem.BasisSet
	h       *linalg.Matrix // core Hamiltonian, for the serial reference build
	opts    chem.SCFOptions
	workers int
	wopt    core.WallOptions
	build   buildFunc
}

// newSCFCase generates the inputs for seed: the base cluster in a
// seeded orientation and position. A rigid motion leaves the physics,
// the screened quartet count and the iteration count unchanged, so the
// seed varies the inputs without varying the work.
func newSCFCase(spec scfSpec, seed int64, workers int) (*scfCase, error) {
	mol := orient(chem.WaterCluster(spec.waters, spec.geomSeed), seed)
	bs, err := chem.NewBasis(spec.basis, mol)
	if err != nil {
		return nil, err
	}
	return &scfCase{
		spec: spec, mol: mol, bs: bs,
		h:       chem.CoreHamiltonian(bs, mol),
		opts:    chem.SCFOptions{UseDIIS: true, Screening: 1e-10, BlockSize: 4},
		workers: workers,
		wopt:    core.WallOptions{Seed: seed},
		build:   schedBuild,
	}, nil
}

// orient returns a copy of mol rotated and translated by a rigid motion
// drawn from seed.
func orient(mol *chem.Molecule, seed int64) *chem.Molecule {
	rng := rand.New(rand.NewSource(seed))
	a, b, c := 2*math.Pi*rng.Float64(), math.Acos(2*rng.Float64()-1), 2*math.Pi*rng.Float64()
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	r := [3][3]float64{
		{ca*cb*cc - sa*sc, -ca*cb*sc - sa*cc, ca * sb},
		{sa*cb*cc + ca*sc, -sa*cb*sc + ca*cc, sa * sb},
		{-sb * cc, sb * sc, cb},
	}
	shift := chem.Vec3{X: 10 * (rng.Float64() - 0.5), Y: 10 * (rng.Float64() - 0.5), Z: 10 * (rng.Float64() - 0.5)}
	out := &chem.Molecule{Name: mol.Name, Charge: mol.Charge}
	for _, at := range mol.Atoms {
		p := at.Pos
		at.Pos = chem.Vec3{
			X: r[0][0]*p.X + r[0][1]*p.Y + r[0][2]*p.Z,
			Y: r[1][0]*p.X + r[1][1]*p.Y + r[1][2]*p.Z,
			Z: r[2][0]*p.X + r[2][1]*p.Y + r[2][2]*p.Z,
		}.Add(shift)
		out.Atoms = append(out.Atoms, at)
	}
	return out
}

// solveOut is one RHF solve and what the verdict needs from it.
type solveOut struct {
	res          *chem.SCFResult
	total, setup time.Duration
	builds       []time.Duration // each builder call as seen from RunSCF: plan, build, merge
	heapMB       float64         // peak live heap sampled at the solve's build boundaries
	lastD, lastF *linalg.Matrix  // density and Fock matrix of the final build
}

// solve runs one RHF solve to convergence through a fresh WallScheduler.
// Set-up is the scheduler construction plus the time from RunSCF entry
// to the first Fock-builder call.
func (c *scfCase) solve(tr *tracer) (*solveOut, error) {
	root := tr.begin(0, "chem", "solve")
	defer tr.end(root)
	t0 := time.Now()
	ws, err := core.NewWallScheduler(c.spec.policy, c.workers, c.wopt)
	if err != nil {
		return nil, err
	}
	tSched := time.Since(t0)
	out := &solveOut{}
	var tEntry, tFirst time.Time
	var buildErr error
	builder := func(fw *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
		b0 := time.Now()
		if tFirst.IsZero() {
			tFirst = b0
			tr.record(root, "chem", "setup", tEntry, b0)
		}
		out.heapMB = max(out.heapMB, liveHeapMB())
		id := tr.begin(root, "core", "build")
		r, err := c.build(ws, fw, h, d)
		tr.end(id)
		if err != nil {
			buildErr = err
			return h.Clone()
		}
		out.lastD, out.lastF = d, r.F
		out.builds = append(out.builds, time.Since(b0))
		out.heapMB = max(out.heapMB, liveHeapMB())
		return r.F
	}
	tEntry = time.Now()
	res, err := chem.RunSCF(c.mol, c.bs, c.opts, builder)
	out.total = time.Since(t0)
	out.setup = tSched + tFirst.Sub(tEntry)
	if err != nil {
		return nil, err
	}
	if buildErr != nil {
		return nil, buildErr
	}
	out.res = res
	return out, nil
}

// warmUp runs one scheduled Fock build before the first timed solve, so
// that no solve pays for first-touch page faults and cold caches.
func (c *scfCase) warmUp() error {
	ws, err := core.NewWallScheduler(c.spec.policy, c.workers, c.wopt)
	if err != nil {
		return err
	}
	_, err = c.build(ws, chem.BuildFockWorkload(c.bs, c.opts.Screening, c.opts.BlockSize), c.h, c.h)
	return err
}

// serialEnergy is the serial RHF energy at the solve's fixed point: the
// serial reference builder restarted from the solve's final state must
// stay converged, and its energy is the reference.
func (c *scfCase) serialEnergy(o *solveOut) (float64, error) {
	opts := c.opts
	opts.Resume = &chem.SCFRestart{Iteration: o.res.Iterations, Energy: o.res.Energy, D: o.res.D}
	r, err := chem.RunSCF(c.mol, c.bs, opts, nil)
	if err != nil {
		return 0, fmt.Errorf("serial reference: %w", err)
	}
	if !r.Converged {
		return 0, fmt.Errorf("serial reference did not converge")
	}
	return r.Energy, nil
}

// verify checks one solve against the serial path: converged, final
// Fock matrix equal to the serial build at the same density, energy
// equal to the serial RHF energy.
func (c *scfCase) verify(o *solveOut, eRef float64) error {
	if !o.res.Converged {
		return fmt.Errorf("not converged after %d iterations", o.res.Iterations)
	}
	if d := maxAbsDiff(o.res.Workload.BuildFock(c.h, o.lastD), o.lastF); !(d <= fockTol) {
		return fmt.Errorf("Fock matrix differs from the serial build by %.3g", d)
	}
	if d := math.Abs(o.res.Energy - eRef); !(d <= energyTol) {
		return fmt.Errorf("energy %.12f differs from the serial RHF energy %.12f by %.3g", o.res.Energy, eRef, d)
	}
	return nil
}

func maxAbsDiff(a, b *linalg.Matrix) float64 {
	if len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if !(d <= m) {
			m = d
		}
	}
	return m
}

// solveRec is the timing record a verified solve leaves behind; only
// the last solve of a phase keeps its matrices, so the live heap does
// not grow with the number of solves a window holds.
type solveRec struct {
	total, setup time.Duration
	builds       []time.Duration
	iterations   int
	heapMB       float64
}

// scfPhase is the verified solves of one measuring phase.
type scfPhase struct {
	recs   []solveRec
	last   *solveOut // the last verified solve, for the layer probes
	eRef   float64
	hasRef bool
}

// runPhase solves repeatedly until the deadline has passed and at least
// minSolves were attempted. Each solve is verified; a failed one is
// counted and contributes no timing.
func (c *scfCase) runPhase(ph *scfPhase, deadline time.Time, minSolves int, tr *tracer, rep *report) {
	for i := 0; i < minSolves || time.Now().Before(deadline); i++ {
		rep.attempted++
		o, err := c.solve(tr)
		if err != nil {
			rep.fail("solve: %v", err)
			continue
		}
		if !ph.hasRef {
			e, err := c.serialEnergy(o)
			if err != nil {
				rep.fail("%v", err)
				continue
			}
			ph.eRef, ph.hasRef = e, true
		}
		if err := c.verify(o, ph.eRef); err != nil {
			rep.fail("solve %d: %v", i, err)
			continue
		}
		ph.recs = append(ph.recs, solveRec{total: o.total, setup: o.setup, builds: o.builds, iterations: o.res.Iterations, heapMB: o.heapMB})
		ph.last = o
	}
}

// endToEnd reports the SCF end-to-end metrics of a phase. A "job" here
// is one Fock build, the unit the execution model schedules.
func (ph *scfPhase) endToEnd(rep *report) {
	var setup, total, builds, heap []float64
	for _, r := range ph.recs {
		setup = append(setup, r.setup.Seconds())
		total = append(total, r.total.Seconds())
		heap = append(heap, r.heapMB)
		for _, b := range r.builds {
			builds = append(builds, ms(b))
		}
	}
	rep.addMedian("setup_s", "s", setup)
	rep.addMedian("solve_s", "s", total)
	rep.addPct("job_p50_ms", "ms", builds, 50)
	rep.addPct("job_p95_ms", "ms", builds, 95)
	rep.addMedian("heap_peak_mb", "MB", heap)
}

func (ph *scfPhase) medianSolve() float64 {
	var xs []float64
	for _, r := range ph.recs {
		xs = append(xs, r.total.Seconds())
	}
	return median(xs)
}

// runSCFWorkload runs one SCF workload. Untraced, it measures the
// end-to-end metrics for the whole window. Traced, it measures half the
// window untraced and half traced (their ratio is the tracing overhead),
// then probes every layer at the converged density and serves the same
// solve through scfd.
func runSCFWorkload(spec scfSpec, a runArgs, rep *report) error {
	c, err := newSCFCase(spec, a.seed, a.workers)
	if err != nil {
		return err
	}
	if a.build != nil {
		c.build = a.build
	}
	start := time.Now()
	if err := c.warmUp(); err != nil {
		return err
	}
	window := time.Duration(a.seconds) * time.Second
	if !a.trace {
		var ph scfPhase
		c.runPhase(&ph, start.Add(window), 3, nil, rep)
		ph.endToEnd(rep)
		return nil
	}

	var plain, traced scfPhase
	c.runPhase(&plain, start.Add(window/2), 2, nil, rep)
	traced.eRef, traced.hasRef = plain.eRef, plain.hasRef
	c.runPhase(&traced, time.Now().Add(window/2), 2, a.tracer, rep)
	if len(plain.recs) == 0 || len(traced.recs) == 0 {
		return fmt.Errorf("no verified solve to probe")
	}
	rep.add("trace_overhead_frac", "ratio", traced.medianSolve()/plain.medianSolve()-1)

	if err := layerReport(c, &traced, inlineSpec(c), a, rep); err != nil {
		return err
	}
	return serveSolve(c, plain.eRef, a, rep)
}

// serialBuild is the buildFunc of scfd's default per-job path: the
// serial reference build, no scheduler.
func serialBuild(_ *core.WallScheduler, fw *chem.FockWorkload, h, d *linalg.Matrix) (*core.WallResult, error) {
	return &core.WallResult{F: fw.BuildFock(h, d)}, nil
}

// layerReport emits the SCF-loop metrics of a phase's solves and runs
// the layer probes at the last solve's converged density.
func layerReport(c *scfCase, ph *scfPhase, spec serve.JobSpec, a runArgs, rep *report) error {
	if ph.last == nil {
		return fmt.Errorf("no verified solve to probe")
	}
	var iters, other []float64
	for _, r := range ph.recs {
		var inBuild time.Duration
		for _, b := range r.builds {
			inBuild += b
		}
		iters = append(iters, float64(r.iterations))
		other = append(other, ms(r.total-r.setup-inBuild)/float64(r.iterations))
	}
	rep.addMedian("chem.scf_iterations", "count", iters)
	rep.addMedian("chem.serial_other_ms", "ms", other)
	last := ph.last
	return probeLayers(probeInput{
		mol: c.mol, bs: c.bs, w: last.res.Workload, h: c.h, d: last.lastD, f: last.lastF,
		opts: c.opts, policy: c.spec.policy, workers: c.workers, seed: c.wopt.Seed, serveSpec: spec,
	}, a, rep)
}

// inlineSpec is the scfd job spec of the case's molecule and basis, with
// the generated geometry sent inline.
func inlineSpec(c *scfCase) serve.JobSpec {
	spec := serve.JobSpec{Tenant: "acme", Basis: c.spec.basis}
	for _, at := range c.mol.Atoms {
		spec.Geometry = append(spec.Geometry, serve.AtomSpec{Element: at.Symbol(), X: at.Pos.X, Y: at.Pos.Y, Z: at.Pos.Z})
	}
	return spec
}

// serveSolve submits the workload's solve to an in-process scfd running
// the same policy on nproc Fock workers with one job worker, twice at
// once so the second job queues behind the first, and reports the serve
// layer's view of those jobs.
func serveSolve(c *scfCase, eRef float64, a runArgs, rep *report) error {
	cfg := serve.Config{Workers: 1, FockWorkers: c.workers, Sched: c.spec.policy, Seed: c.wopt.Seed}
	x, _, err := startServer(a.tmpDir, cfg)
	if err != nil {
		return err
	}
	defer x.stop()
	spec := inlineSpec(c)
	s := newSession(x.url, c.workers, map[string]float64{refKey(&spec): eRef}, a.tracer)
	defer s.close()
	outcomeStats(s.run([]plannedJob{{spec: spec}, {spec: spec}}, rep), rep)
	return nil
}
