package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
	"execmodels/internal/serve"
)

// probeInput is the converged state the layer probes time their calls
// on: the workload's own molecule, basis, Fock workload and density.
type probeInput struct {
	mol       *chem.Molecule
	bs        *chem.BasisSet
	w         *chem.FockWorkload
	h, d, f   *linalg.Matrix // core Hamiltonian, density and Fock matrix of the last build
	opts      chem.SCFOptions
	policy    string // core scheduler the workload runs
	workers   int
	seed      int64
	serveSpec serve.JobSpec // how a client would submit this system to scfd
}

// repsMs times n calls of f and returns each in milliseconds.
func repsMs(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		f()
		out[i] = ms(time.Since(t))
	}
	return out
}

// nsPerOp times f in batches of at least 5 ms and returns the median
// batch's nanoseconds per call over 5 batches.
func nsPerOp(f func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t) >= 5*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	xs := make([]float64, 5)
	for b := range xs {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		xs[b] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// probeLayers times the exported entry points of chem, linalg, core and
// serve on the probe input, and verifies every Fock build it runs.
func probeLayers(in probeInput, a runArgs, rep *report) error {
	probeChemSetup(in, rep)
	serialMs := probeKernel(in, rep)
	if err := probeCore(in, serialMs, rep); err != nil {
		return err
	}
	return probeServeOps(in, a, rep)
}

// probeChemSetup covers the SCF set-up that RunSCF performs before its
// first Fock build, call by call.
func probeChemSetup(in probeInput, rep *report) {
	var pairs []chem.ShellPair
	rep.addMedian("chem.oneint_ms", "ms", repsMs(5, func() {
		chem.Overlap(in.bs)
		chem.CoreHamiltonian(in.bs, in.mol)
	}))
	rep.addMedian("chem.schwarz_ms", "ms", repsMs(5, func() { pairs = chem.SchwarzBounds(in.bs) }))
	rep.addMedian("chem.taskgen_ms", "ms", repsMs(5, func() {
		chem.BuildFockWorkloadFromPairs(in.bs, pairs, in.opts.Screening, in.opts.BlockSize)
	}))
	st := in.w.Stats()
	rep.add("chem.tasks", "count", float64(len(in.w.Tasks)))
	rep.add("chem.quartets_unique", "count", float64(st.UniqueQuartets))
	rep.add("chem.quartets_surviving", "count", float64(st.Surviving))

	s := chem.Overlap(in.bs)
	var x *linalg.Matrix
	rep.addMedian("linalg.invsqrt_ms", "ms", repsMs(5, func() { x = linalg.InvSqrtSym(s, 1e-10) }))
	fp := linalg.TripleProduct(x, in.f)
	rep.addMedian("linalg.eigen_ms", "ms", repsMs(5, func() { linalg.EigenSym(fp) }))
}

// probeKernel times the two-electron kernel: the serial Fock build, the
// ERI block per shell class, the Boys function, single tasks and the
// accumulator merge. It returns the serial build's median milliseconds.
func probeKernel(in probeInput, rep *report) float64 {
	serial := repsMs(3, func() { in.w.BuildFock(in.h, in.d) })
	serialMs := median(serial)
	rep.addMedian("chem.fock_serial_ms", "ms", serial)
	rep.add("chem.quartets_per_s", "1/s", float64(in.w.Stats().Surviving)/(serialMs/1e3))

	for _, cl := range []struct {
		name string
		l    [4]int
	}{{"ssss", [4]int{0, 0, 0, 0}}, {"psss", [4]int{1, 0, 0, 0}}, {"pppp", [4]int{1, 1, 1, 1}}, {"dddd", [4]int{2, 2, 2, 2}}} {
		bs := in.bs
		bra, ket := findPair(bs, cl.l[0], cl.l[1]), findPair(bs, cl.l[2], cl.l[3])
		if bra == nil || ket == nil {
			// No such shells in the workload's basis (d shells exist
			// only in 6-31G*): time the class on the same molecule in
			// 6-31G*, the smallest basis here that has them.
			if alt, err := chem.NewBasis("6-31g*", in.mol); err == nil {
				bs = alt
				bra, ket = findPair(bs, cl.l[0], cl.l[1]), findPair(bs, cl.l[2], cl.l[3])
			}
		}
		if bra == nil || ket == nil {
			rep.add("chem.eri_ns."+cl.name, "ns", math.NaN())
			continue
		}
		s := chem.NewERIScratch(bs)
		rep.add("chem.eri_ns."+cl.name, "ns", nsPerOp(func() { chem.ERIBlockPairInto(bra, ket, s) }))
	}

	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 40 * float64(i) / float64(len(xs))
	}
	out := make([]float64, 9)
	rep.add("chem.boys_ns", "ns", nsPerOp(func() {
		for _, x := range xs {
			chem.Boys(4, x, out)
		}
	})/float64(len(xs)))

	n := in.bs.NBF
	j, k := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	scratch := in.w.NewScratch()
	var taskUs []float64
	for pass := 0; pass < 3; pass++ {
		for i := range in.w.Tasks {
			t := time.Now()
			in.w.ExecuteTaskScratch(&in.w.Tasks[i], in.d, j, k, scratch)
			taskUs = append(taskUs, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	rep.addPct("chem.task_us.p50", "us", taskUs, 50)
	rep.addPct("chem.task_us.tail", "us", taskUs, 90)

	acc := in.w.NewJKAccum(false)
	rep.add("chem.merge_us", "us", nsPerOp(func() { acc.MergeInto(j, k, nil) })/1e3)
	return serialMs
}

// findPair returns the Hermite pair data of the first shell pair of bs
// with angular momenta (la, lb), or nil.
func findPair(bs *chem.BasisSet, la, lb int) *chem.PairData {
	for i := range bs.Shells {
		for k := range bs.Shells {
			if bs.Shells[i].L == la && bs.Shells[k].L == lb {
				return chem.NewPairData(&bs.Shells[i], &bs.Shells[k])
			}
		}
	}
	return nil
}

// coreBuilds is the number of WallScheduler builds per probe; the
// reference modes get refBuilds each, interleaved.
const (
	coreBuilds = 8
	refBuilds  = 5
)

// probeCore times the scheduler seam (task set, plan) and repeated
// WallScheduler builds at the converged density under the workload's
// policy, then the static, dynamic and stealing reference builds whose
// gap is the paper's effect. Every build is checked against the serial
// Fock matrix.
func probeCore(in probeInput, serialMs float64, rep *report) error {
	var ts *core.TaskSet
	rep.addMedian("core.taskset_ms", "ms", repsMs(5, func() { ts = core.FockTaskSet(in.w) }))
	sched, err := core.SchedulerByName(in.policy, core.SchedOptions{Seed: in.seed})
	if err != nil {
		return err
	}
	rep.addMedian("core.plan_ms", "ms", repsMs(5, func() { sched.Plan(ts, in.workers) }))

	ref := in.w.BuildFock(in.h, in.d)
	check := func(what string, r *core.WallResult) bool {
		rep.attempted++
		if d := maxAbsDiff(r.F, ref); !(d <= fockTol) {
			rep.fail("%s build differs from the serial build by %.3g", what, d)
			return false
		}
		return true
	}

	ws, err := core.NewWallScheduler(in.policy, in.workers, core.WallOptions{Seed: in.seed})
	if err != nil {
		return err
	}
	keys := map[uint64]bool{}
	for _, k := range ts.Keys {
		keys[k] = true
	}
	var buildMs, imb, idle, steals, retries, known []float64
	for i := 0; i < coreBuilds; i++ {
		if i > 0 {
			var n int
			if p := ws.CostProfile(); p != nil {
				for _, t := range p.Tasks {
					if keys[t.Key] {
						n++
					}
				}
			}
			known = append(known, float64(n)/float64(len(ts.Keys)))
		}
		r, err := ws.Build(in.w, in.h, in.d)
		if err != nil {
			return err
		}
		if !check(in.policy, r) {
			continue
		}
		var busy time.Duration
		for _, b := range r.WorkerBusy {
			busy += b
		}
		buildMs = append(buildMs, ms(r.Elapsed))
		imb = append(imb, r.LoadImbalance())
		idle = append(idle, 1-busy.Seconds()/(float64(in.workers)*r.Elapsed.Seconds()))
		steals = append(steals, float64(r.Steals))
		retries = append(retries, float64(r.StealRetry))
	}
	rep.addPct("core.build_ms.p50", "ms", buildMs, 50)
	rep.addPct("core.build_ms.tail", "ms", buildMs, 90)
	rep.addMedian("core.imbalance", "ratio", imb)
	rep.addMedian("core.idle_frac", "ratio", idle)
	rep.add("core.efficiency", "ratio", serialMs/(float64(in.workers)*median(buildMs)))
	rep.addMedian("core.steals", "count", steals)
	rep.addMedian("core.steal_retries", "count", retries)
	rep.addMedian("core.costmodel_known", "ratio", known)

	modes := []string{"static", "dynamic", "stealing"}
	scheds := make([]*core.WallScheduler, len(modes))
	for i, m := range modes {
		if scheds[i], err = core.NewWallScheduler(m, in.workers, core.WallOptions{Seed: in.seed}); err != nil {
			return err
		}
	}
	times := make([][]float64, len(modes))
	for r := 0; r < refBuilds; r++ {
		for i, m := range modes {
			res, err := scheds[i].Build(in.w, in.h, in.d)
			if err != nil {
				return err
			}
			if check(m, res) {
				times[i] = append(times[i], ms(res.Elapsed))
			}
		}
	}
	for i, m := range modes {
		rep.addMedian("core.build_ms."+m, "ms", times[i])
		rep.add("core.build_iqr_frac."+m, "ratio", iqrFrac(times[i]))
		rep.add("core.speedup."+m, "ratio", serialMs/median(times[i]))
	}
	return nil
}

// probeServeOps times scfd's per-request operations on this workload's
// job: spec decoding with the cost estimate, admission, a fair-queue
// push and pop, and a checkpoint write of the converged density on the
// spool's filesystem.
func probeServeOps(in probeInput, a runArgs, rep *report) error {
	body, err := json.Marshal(in.serveSpec)
	if err != nil {
		return err
	}
	var est float64
	rep.add("serve.decode_us", "us", nsPerOp(func() {
		spec, err := serve.DecodeJobSpec(body)
		if err == nil {
			est, _, _ = spec.EstimateCost()
		}
	})/1e3)
	if est == 0 {
		return fmt.Errorf("probe spec %s does not decode", body)
	}
	adm := serve.Admission{MaxDepth: 512, MaxQueuedFlops: 1e9, FallbackRate: 1e6}
	rep.add("serve.admit_ns", "ns", nsPerOp(func() { adm.Admit(8, 8*est, est, 1e6) }))

	q := serve.NewFairQueue(map[string]float64{"acme": 3, "blue": 1, "guest": 1})
	for i := 0; i < 16; i++ {
		spec := in.serveSpec
		spec.Tenant = []string{"acme", "blue", "guest"}[i%3]
		q.Push(&serve.Job{ID: fmt.Sprint("probe-", i), Spec: &spec, EstCost: est})
	}
	rep.add("serve.queue_op_ns", "ns", nsPerOp(func() {
		j, _ := q.Pop()
		q.Push(j)
	}))

	dir, err := os.MkdirTemp(a.tmpDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := serve.NewStore(dir)
	if err != nil {
		return err
	}
	if err := store.SaveSpec("probe", &in.serveSpec); err != nil {
		return err
	}
	ck := &core.SCFCheckpoint{JobID: "probe", Molecule: in.mol.Name, Basis: in.bs.Name, N: in.bs.NBF, Iteration: 1, Energy: -1, Density: in.d.Data}
	var werr error
	rep.addMedian("serve.ckpt_write_ms", "ms", repsMs(20, func() {
		if err := store.SaveCheckpoint("probe", ck); err != nil {
			werr = err
		}
	}))
	return werr
}
