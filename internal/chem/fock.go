package chem

import (
	"hash/fnv"
	"math"
	"sort"

	"execmodels/internal/linalg"
)

// quartetDegeneracy is the number of distinct shell-index permutations
// of the unique quartet (a,b,c,d) under the 8-fold integral symmetry —
// the length of quartetPermutations(a, b, c, d) for every canonical
// quartet the task generator emits.
func quartetDegeneracy(a, b, c, d int) float64 {
	deg := 1.0
	if a != b {
		deg *= 2
	}
	if c != d {
		deg *= 2
	}
	if a != c || b != d {
		deg *= 2
	}
	return deg
}

// digestOnePass digests the precomputed ERI block of the unique quartet
// in one walk over the block, scaling each integral by the quartet's
// degeneracy instead of visiting its permutations. Every integral
// v = (μν|λσ) makes two Coulomb and, per exchange matrix, four exchange
// updates:
//
//	J[μν] += ½deg·DJ[λσ]·v    J[λσ] += ½deg·DJ[μν]·v
//	K[μλ] += ¼deg·DK[νσ]·v    K[νλ] += ¼deg·DK[μσ]·v
//	K[μσ] += ¼deg·DK[νλ]·v    K[νσ] += ¼deg·DK[μλ]·v
//
// Each update goes to one slot of a mirror pair (J[μν] but not J[νμ]),
// with the weight of both, so the result is not symmetric; its
// symmetric part ½(X+Xᵀ) equals what digestUniqueQuartet's permutation
// scatter produces for symmetric densities. Every Fock assembly
// symmetrizes once, after all quartets are in. J[μν], K[μλ] and K[νλ]
// sum in registers across the σ loop; the three σ-indexed updates walk
// contiguous rows of the row-major matrices. shells, ia..id and blk are
// as in digestUniqueQuartet.
//
//hotpath:allocfree
func digestOnePass(j, dj *linalg.Matrix, ks, dks []*linalg.Matrix, shells []Shell, ia, ib, ic, id int, blk []float64) {
	a, b, c, d := &shells[ia], &shells[ib], &shells[ic], &shells[id]
	na, nb, nc, nd := a.NumFuncs(), b.NumFuncs(), c.NumFuncs(), d.NumFuncs()
	deg := quartetDegeneracy(ia, ib, ic, id)
	hJ, qK := 0.5*deg, 0.25*deg
	n := j.Cols
	for fa := 0; fa < na; fa++ {
		mu := a.Start + fa
		rowM := mu*n + d.Start
		for fb := 0; fb < nb; fb++ {
			nu := b.Start + fb
			rowN := nu*n + d.Start
			cJ := hJ * dj.Data[mu*n+nu]
			var jAcc float64
			for fc := 0; fc < nc; fc++ {
				lam := c.Start + fc
				off := ((fa*nb+fb)*nc + fc) * nd
				v := blk[off : off+nd]
				rowL := lam*n + d.Start
				djL := dj.Data[rowL : rowL+len(v)]
				jL := j.Data[rowL : rowL+len(v)]
				for fd, x := range v {
					jAcc += djL[fd] * x
					jL[fd] += cJ * x
				}
				for s, k := range ks {
					dk := dks[s].Data
					dkM, dkN := dk[rowM:rowM+len(v)], dk[rowN:rowN+len(v)]
					kM, kN := k.Data[rowM:rowM+len(v)], k.Data[rowN:rowN+len(v)]
					cM, cN := qK*dk[nu*n+lam], qK*dk[mu*n+lam]
					var kML, kNL float64
					for fd, x := range v {
						kML += dkN[fd] * x
						kNL += dkM[fd] * x
						kM[fd] += cM * x
						kN[fd] += cN * x
					}
					k.Data[mu*n+lam] += qK * kML
					k.Data[nu*n+lam] += qK * kNL
				}
			}
			j.Data[mu*n+nu] += hJ * jAcc
		}
	}
}

// pairIndex maps a shell pair i <= j to its canonical triangular index.
func pairIndex(i, j int) int { return j*(j+1)/2 + i }

// FockTask is one work unit of the two-electron Fock build: a contiguous
// block of unique bra shell-pairs. Executing the task computes, for every
// bra pair in the block, all surviving unique quartets with ket pair index
// <= bra pair index, and digests them into partial J/K matrices.
//
// Schwarz screening is resolved when the task is generated, not when it
// is executed: Kets holds the exact surviving ket-pair index list per bra
// pair, so workers never evaluate a bound and the task multiset handed to
// a scheduler is already pruned.
type FockTask struct {
	ID         int
	BraPairs   []ShellPair // the bra pairs owned by this task
	PairOffset int         // index of BraPairs[0] within the workload's Pairs
	EstFlops   float64     // cost-model estimate (ERIBlockFlops sum, post-screening)
	NumQuarts  int         // surviving quartets (post-screening)

	// Kets[i] lists, in ascending order, the workload pair indices of the
	// surviving ket pairs for BraPairs[i] (those with index <= the bra's
	// global position whose bound product clears the threshold). All rows
	// share one backing array sized NumQuarts.
	Kets [][]int32
}

// Key returns a stable content hash identifying the task across Fock
// builds: equal key ⇒ same bra pairs, same screened quartet count, same
// cost estimate. Feedback schedulers store measured-cost history under
// these keys, so a re-blocked or re-screened decomposition (different
// content) starts cold instead of inheriting stale measurements.
func (t *FockTask) Key() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(t.PairOffset))
	put(uint64(t.NumQuarts))
	put(math.Float64bits(t.EstFlops))
	for i := range t.BraPairs {
		put(uint64(t.BraPairs[i].I)<<32 | uint64(uint32(t.BraPairs[i].J)))
	}
	return h.Sum64()
}

// FockWorkload is the screened, blocked decomposition of one Fock build.
type FockWorkload struct {
	Basis     *BasisSet
	Pairs     []ShellPair // significant pairs, sorted by ascending pair index
	Tasks     []FockTask
	Threshold float64

	// pairData caches the per-pair Hermite tables aligned with Pairs:
	// computed and primitive-screened once, reused by every quartet the
	// pair participates in and shared by Reblock.
	pairData []*PairData
}

// BuildFockWorkload screens the shell pairs of bs at threshold and groups
// the surviving bra pairs into tasks of blockSize consecutive pairs. Task
// costs are estimated with the deterministic flop model, so schedulers can
// be studied both with and without cost knowledge.
func BuildFockWorkload(bs *BasisSet, threshold float64, blockSize int) *FockWorkload {
	return BuildFockWorkloadFromPairs(bs, SchwarzBounds(bs), threshold, blockSize)
}

// BuildFockWorkloadFromPairs is BuildFockWorkload with precomputed Schwarz
// bounds, so granularity sweeps can re-block the same screening data
// without recomputing the (ij|ij) integrals each time.
//
// Screening also reaches below the shell pairs: each significant pair
// keeps only the primitive pairs above primPairCut(allPairs, threshold),
// so threshold 0 keeps every primitive.
func BuildFockWorkloadFromPairs(bs *BasisSet, allPairs []ShellPair, threshold float64, blockSize int) *FockWorkload {
	if blockSize < 1 {
		panic("chem: blockSize must be >= 1")
	}
	pairs := SignificantPairs(allPairs, threshold)
	// Sort by canonical triangular pair index so slice position and
	// pairIndex induce the same total order; the bra >= ket uniqueness
	// criterion below then agrees exactly between cost estimation and
	// execution.
	sort.Slice(pairs, func(a, b int) bool {
		return pairIndex(pairs[a].I, pairs[a].J) < pairIndex(pairs[b].I, pairs[b].J)
	})
	w := &FockWorkload{Basis: bs, Pairs: pairs, Threshold: threshold}
	w.pairData = make([]*PairData, len(pairs))
	cut := primPairCut(allPairs, threshold)
	for i, p := range pairs {
		w.pairData[i] = NewPairData(&bs.Shells[p.I], &bs.Shells[p.J])
		w.pairData[i].prune(cut)
	}
	w.blockTasks(blockSize)
	return w
}

// primScreenFactor scales the Schwarz threshold into the primitive-pair
// cut: a primitive pair is dropped only when its bound, times the
// largest shell-pair bound of the basis, falls four orders of magnitude
// below the quartet threshold.
const primScreenFactor = 1e-4

// primPairCut is the primitive-pair screening cut tied to the quartet
// threshold, with no knob of its own: a primitive pair whose bound Q_p
// (PairData.primBound) satisfies Q_p · max Q < primScreenFactor ·
// threshold changes any quartet it enters by about primScreenFactor ·
// threshold at most, so it is dropped before any ERI is evaluated.
// Threshold 0 gives cut 0, which prunes nothing.
func primPairCut(pairs []ShellPair, threshold float64) float64 {
	var qmax float64
	for _, p := range pairs {
		qmax = math.Max(qmax, p.Bound)
	}
	if threshold <= 0 || qmax == 0 {
		return 0
	}
	return primScreenFactor * threshold / qmax
}

// blockTasks (re)builds the task decomposition at the given bra-pair
// block size, resolving Schwarz screening into each task's explicit
// Kets lists: the executor's quartet multiset is fixed here, at
// generation time, and workers never test a bound.
func (w *FockWorkload) blockTasks(blockSize int) {
	bs, pairs := w.Basis, w.Pairs
	w.Tasks = nil
	for start := 0; start < len(pairs); start += blockSize {
		end := start + blockSize
		if end > len(pairs) {
			end = len(pairs)
		}
		t := FockTask{ID: len(w.Tasks), BraPairs: pairs[start:end], PairOffset: start}
		t.Kets = make([][]int32, end-start)
		// First pass sizes the shared backing array so the per-bra rows
		// are sub-slices of one allocation.
		for bi := start; bi < end; bi++ {
			for ki := 0; ki <= bi; ki++ {
				if quartetSurvives(&pairs[bi], &pairs[ki], w.Threshold) {
					t.NumQuarts++
				}
			}
		}
		kets := make([]int32, 0, t.NumQuarts)
		for bi := start; bi < end; bi++ {
			bra := pairs[bi]
			row := len(kets)
			for ki := 0; ki <= bi; ki++ {
				ket := pairs[ki]
				if !quartetSurvives(&bra, &ket, w.Threshold) {
					continue
				}
				kets = append(kets, int32(ki))
				t.EstFlops += ERIBlockFlops(
					&bs.Shells[bra.I], &bs.Shells[bra.J],
					&bs.Shells[ket.I], &bs.Shells[ket.J])
			}
			t.Kets[bi-start] = kets[row:len(kets):len(kets)]
		}
		w.Tasks = append(w.Tasks, t)
	}
}

// Reblock returns a workload over the same screened pairs, Schwarz data
// and per-pair Hermite tables, re-decomposed into tasks of blockSize bra
// pairs. Because the expensive screening and pair setup are shared,
// granularity sweeps (WallOptions.PairBlock, the W2 experiment) cost
// only the task bookkeeping. The returned workload digests exactly the
// same quartets in the same global bra-major order, so a serial sweep
// over its tasks is bit-identical to one over the original's.
func (w *FockWorkload) Reblock(blockSize int) *FockWorkload {
	if blockSize < 1 {
		panic("chem: blockSize must be >= 1")
	}
	nw := &FockWorkload{Basis: w.Basis, Pairs: w.Pairs, Threshold: w.Threshold, pairData: w.pairData}
	nw.blockTasks(blockSize)
	return nw
}

// WorkloadStats summarizes how much work symmetry folding, Schwarz
// screening and primitive-pair screening removed before any task reached
// a scheduler.
type WorkloadStats struct {
	Shells           int   // basis shells N
	AllPairs         int   // N(N+1)/2 candidate shell pairs
	SignificantPairs int   // pairs surviving SignificantPairs
	NaiveQuartets    int64 // N^4 ordered quartets of the symmetry-free loop
	UniqueQuartets   int64 // canonical quartets before screening: M(M+1)/2, M = AllPairs
	Surviving        int64 // unique quartets surviving Schwarz screening (sum of task NumQuarts)
	PrimPairs        int64 // primitive pairs kept over the significant shell pairs, after pruning
	PrimQuartets     int64 // primitive quartets the surviving quartets evaluate: Σ bra prims × ket prims
}

// Stats returns the workload's symmetry/screening accounting.
func (w *FockWorkload) Stats() WorkloadStats {
	n := int64(len(w.Basis.Shells))
	m := n * (n + 1) / 2
	st := WorkloadStats{
		Shells:           int(n),
		AllPairs:         int(m),
		SignificantPairs: len(w.Pairs),
		NaiveQuartets:    n * n * n * n,
		UniqueQuartets:   m * (m + 1) / 2,
	}
	for _, pd := range w.pairData {
		st.PrimPairs += int64(len(pd.prims))
	}
	for i := range w.Tasks {
		t := &w.Tasks[i]
		st.Surviving += int64(t.NumQuarts)
		for bi, kets := range t.Kets {
			nb := int64(len(w.pairData[t.PairOffset+bi].prims))
			for _, ki := range kets {
				st.PrimQuartets += nb * int64(len(w.pairData[ki].prims))
			}
		}
	}
	return st
}

// ExecuteTask runs one Fock task against density d, accumulating into the
// caller's partial J and K matrices. It returns the number of quartets
// actually computed — always exactly the task's NumQuarts, since the
// quartet multiset was resolved at generation time into the Kets lists
// (each unique quartet appears on exactly one task).
//
// The accumulated J and K are not symmetric: the task's contribution is
// their symmetric part ½(X+Xᵀ) (see digestOnePass). Symmetrization is
// linear, so callers sum raw J/K over tasks and workers and symmetrize
// once; every Fock assembly (BuildFock, RunUHF, core's wall-clock and
// distributed builds) does so. The same holds for ExecuteTaskScratch,
// ExecuteTaskSpin, ExecuteTaskSpinScratch and ExecuteTaskAccum.
//
// Each call sets up a fresh scratch arena; loops over many tasks should
// use ExecuteTaskScratch with a single arena per worker instead.
func (w *FockWorkload) ExecuteTask(t *FockTask, d, j, k *linalg.Matrix) int {
	return w.ExecuteTaskScratch(t, d, j, k, w.NewScratch())
}

// ExecuteTaskScratch is ExecuteTask with a caller-owned scratch arena.
// With a warmed-up arena the steady state performs zero heap allocations
// per task (enforced by a testing.AllocsPerRun gate and proved by the
// allocfree check).
//
//hotpath:allocfree
func (w *FockWorkload) ExecuteTaskScratch(t *FockTask, d, j, k *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.dks[0] = k, d
	return w.executeTask(t, d, s.ks[:1], s.dks[:1], j, s)
}

// ExecuteTaskSpin is the unrestricted (UHF) variant: J contracts the
// total density while separate exchange matrices contract the α and β
// densities. Like ExecuteTask, it accumulates J/Kα/Kβ whose symmetric
// parts are the contribution.
func (w *FockWorkload) ExecuteTaskSpin(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix) int {
	return w.ExecuteTaskSpinScratch(t, dTot, dA, dB, j, kA, kB, w.NewScratch())
}

// ExecuteTaskSpinScratch is ExecuteTaskSpin with a caller-owned scratch
// arena.
//
//hotpath:allocfree
func (w *FockWorkload) ExecuteTaskSpinScratch(t *FockTask, dTot, dA, dB, j, kA, kB *linalg.Matrix, s *ERIScratch) int {
	s.ks[0], s.ks[1] = kA, kB
	s.dks[0], s.dks[1] = dA, dB
	return w.executeTask(t, dTot, s.ks[:2], s.dks[:2], j, s)
}

// executeTask digests every quartet on the task's pre-screened Kets
// lists. No Schwarz bound is evaluated here — the surviving quartet
// multiset was fixed at task-generation time (blockTasks), so the worker
// loop is pure compute: ERI block, one-pass digest, next.
//
//hotpath:allocfree
func (w *FockWorkload) executeTask(t *FockTask, dj *linalg.Matrix, ks, dks []*linalg.Matrix, j *linalg.Matrix, s *ERIScratch) int {
	shells := w.Basis.Shells
	var done int
	for bi, bra := range t.BraPairs {
		braPD := w.pairData[t.PairOffset+bi]
		for _, ki := range t.Kets[bi] {
			ket := &w.Pairs[ki]
			blk := ERIBlockPairInto(braPD, w.pairData[ki], s)
			digestOnePass(j, dj, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// ExecuteTaskBaseline is the pre-arena reference implementation of
// ExecuteTask, retained verbatim as the "before" point of the repo's
// perf trajectory (BENCH_wall.json) and as the allocation-behavior foil
// in tests: it allocates the ERI block, the Hermite R workspace and the
// digest closures per quartet. Its results must match ExecuteTask
// exactly up to floating-point accumulation order.
func (w *FockWorkload) ExecuteTaskBaseline(t *FockTask, d, j, k *linalg.Matrix) int {
	shells := w.Basis.Shells
	ks, dks := []*linalg.Matrix{k}, []*linalg.Matrix{d}
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
			digestUniqueQuartet(j, d, ks, dks, shells, bra.I, bra.J, ket.I, ket.J, blk)
			done++
		}
	}
	return done
}

// TotalFlops returns the summed cost estimate across all tasks.
func (w *FockWorkload) TotalFlops() float64 {
	var s float64
	for _, t := range w.Tasks {
		s += t.EstFlops
	}
	return s
}

// BuildFock computes F = H + J - K/2 serially from density d, using the
// workload's screened quartet list. It is the reference implementation the
// parallel execution models are validated against.
func (w *FockWorkload) BuildFock(h, d *linalg.Matrix) *linalg.Matrix {
	n := w.Basis.NBF
	j := linalg.NewMatrix(n, n)
	k := linalg.NewMatrix(n, n)
	s := w.NewScratch()
	for i := range w.Tasks {
		w.ExecuteTaskScratch(&w.Tasks[i], d, j, k, s)
	}
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	// The one-pass digest leaves J/K whose symmetric part is the result.
	f.Symmetrize()
	return f
}

// CostImbalance returns max/mean of the task cost estimates, a quick
// measure of how irregular the workload is before any scheduling.
func (w *FockWorkload) CostImbalance() float64 {
	if len(w.Tasks) == 0 {
		return 0
	}
	var sum, max float64
	for _, t := range w.Tasks {
		sum += t.EstFlops
		max = math.Max(max, t.EstFlops)
	}
	mean := sum / float64(len(w.Tasks))
	if mean == 0 {
		return 0
	}
	return max / mean
}
