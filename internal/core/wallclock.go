package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/deque"
	"execmodels/internal/ga"
	"execmodels/internal/linalg"
)

// WallResult is the outcome of a real (wall-clock) parallel Fock build.
type WallResult struct {
	F          *linalg.Matrix
	Elapsed    time.Duration
	WorkerBusy []time.Duration // per-worker time spent executing tasks
	Steals     int64           // successful steal-half operations
	StealRetry int64           // failed steal rounds (victim empty) — the tail-spin metric
	StealSeed  int64           // the victim-selection seed actually used
	CounterOps int64           // NXTVAL fetches (dynamic mode)
}

// WallSpinResult is the unrestricted counterpart: the merged J/Kα/Kβ
// matrices of one parallel spin Fock build, with the same executor
// telemetry as WallResult. The caller (chem.RunUHF via
// ParallelUHFFockBuilder) assembles the two spin Fock matrices. The
// matrices are the merged raw accumulators, whose symmetric parts are
// J/Kα/Kβ (see chem.FockWorkload.ExecuteTask).
type WallSpinResult struct {
	J, KA, KB  *linalg.Matrix
	Elapsed    time.Duration
	WorkerBusy []time.Duration
	Steals     int64
	StealRetry int64
	StealSeed  int64
	CounterOps int64
}

// LoadImbalance returns max/mean worker busy time.
func (r *WallResult) LoadImbalance() float64 {
	var sum, mx time.Duration
	for _, b := range r.WorkerBusy {
		sum += b
		if b > mx {
			mx = b
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) / (float64(sum) / float64(len(r.WorkerBusy)))
}

// wallCounters is the scheduler telemetry every wall-clock schedule
// reports after a run; schedules that lack a counter leave it zero.
type wallCounters struct {
	steals, retries, seed, counterOps int64
}

// wallSched is one wall-clock scheduling discipline: next hands worker wk
// its next task index (invoked only from worker wk's goroutine, so
// per-worker state needs no synchronization), counters reports the
// telemetry accumulated over the run.
type wallSched interface {
	next(wk int) (int, bool)
	counters() wallCounters
}

// wallAccum is one worker's slot in the shared accumulator table: the
// worker-private J/K accumulator (with its scratch arena) plus the busy
// stopwatch the worker bumps after every task. Workers write only their
// own slot, but slots are adjacent in one slice, so each is padded to a
// cache line — otherwise every busy update would false-share with the
// neighbouring workers' slots. The shareiso check proves the ownership
// half of that sentence: each slot is touched only through its owning
// worker's index, and the spawner reads the slots back only after
// wg.Wait.
//
//hotpath:padded
//hotpath:isolated
type wallAccum struct {
	acc  *chem.JKAccum
	busy time.Duration
	// taskSec, when non-nil, captures each executed task's wall time by
	// task index — the measurement side of the obs→scheduler feedback
	// loop. Indexed by the task id the schedule hands out, so disjoint
	// schedules write disjoint entries; sized before the clock starts.
	taskSec []float64
	_       [24]byte
}

// wallRunJK drives the shared scaffolding of all wall-clock executors: it
// spawns workers, each pulling task indices from sched until exhausted and
// digesting into its own wallAccum slot (through a worker-private scratch
// arena, so the steady-state loop allocates nothing). The per-worker
// accumulators are folded into the returned J/K matrices only after
// wg.Wait, in worker order — no concurrent writes to shared matrices
// anywhere, and the merge order is deterministic for a fixed worker
// count. dj feeds the Coulomb contraction; dkA (and dkB when spin) feed
// exchange.
//
// taskSeconds, when non-nil (len = number of tasks), receives each task's
// measured wall time: every worker records into its own pre-sized slice
// and the slices are folded after wg.Wait, so the measurement path stays
// race-free and allocation-free inside the timed loop.
func wallRunJK(fw *chem.FockWorkload, dj, dkA, dkB *linalg.Matrix, spin bool,
	workers int, sched wallSched, taskSeconds []float64) (j, kA, kB *linalg.Matrix, elapsed time.Duration, busy []time.Duration) {
	if workers < 1 {
		panic(fmt.Sprintf("core: workers = %d", workers))
	}
	// Cold start: worker accumulators and scratch arenas are allocated
	// before the clock starts, outside the proved-allocation-free loop.
	slots := make([]wallAccum, workers)
	for wk := range slots {
		slots[wk].acc = fw.NewJKAccum(spin)
		if taskSeconds != nil {
			slots[wk].taskSec = make([]float64, len(taskSeconds))
		}
	}

	sw := startStopwatch()
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			wallWorkerLoop(fw, dj, dkA, dkB, &slots[wk], wk, sched.next)
		}(wk)
	}
	wg.Wait()
	elapsed = sw.elapsed()

	n := fw.Basis.NBF
	j = linalg.NewMatrix(n, n)
	kA = linalg.NewMatrix(n, n)
	if spin {
		kB = linalg.NewMatrix(n, n)
	}
	busy = make([]time.Duration, workers)
	for wk := range slots {
		slots[wk].acc.MergeInto(j, kA, kB)
		busy[wk] = slots[wk].busy
		if taskSeconds != nil {
			// Each task ran on exactly one worker; fold the sparse
			// per-worker records (zero = not executed here).
			for i, v := range slots[wk].taskSec {
				if v != 0 {
					taskSeconds[i] = v
				}
			}
		}
	}
	return j, kA, kB, elapsed, busy
}

// wallWorkerLoop is the steady-state body of every wall-clock worker:
// pull a task index, digest it into the worker's own accumulator slot,
// account the busy time. This is the loop the paper's execution-model
// comparison times, so it must not allocate — the arena-backed
// accumulator makes the digestion allocation-free after warm-up, and the
// allocfree check proves it for every schedule implementation. Screening
// never appears here: the task's quartet multiset was resolved into Kets
// lists at generation time.
//
//hotpath:allocfree
func wallWorkerLoop(fw *chem.FockWorkload, dj, dkA, dkB *linalg.Matrix,
	slot *wallAccum, wk int, nextTask func(worker int) (int, bool)) {
	for {
		//lint:ignore allocfree indirect dispatch: every nextTask implementation (wallStaticSched, wallAssignSched, wallDynSched, wallStealSched .next) is itself an annotated allocfree root
		id, ok := nextTask(wk)
		if !ok {
			return
		}
		t0 := startStopwatch()
		fw.ExecuteTaskAccum(&fw.Tasks[id], dj, dkA, dkB, slot.acc)
		dt := t0.elapsed()
		slot.busy += dt
		if slot.taskSec != nil {
			slot.taskSec[id] = dt.Seconds()
		}
	}
}

// wallBuild runs one restricted Fock build through sched and assembles
// F = H + J − K/2 from the merged accumulators. taskSeconds, when
// non-nil, receives per-task measured wall times (see wallRunJK).
func wallBuild(sched wallSched, fw *chem.FockWorkload, h, d *linalg.Matrix, workers int, taskSeconds []float64) *WallResult {
	j, k, _, elapsed, busy := wallRunJK(fw, d, d, nil, false, workers, sched, taskSeconds)
	f := h.Clone()
	f.AddScaled(1, j)
	f.AddScaled(-0.5, k)
	f.Symmetrize()
	res := &WallResult{F: f, Elapsed: elapsed, WorkerBusy: busy}
	c := sched.counters()
	res.Steals, res.StealRetry, res.StealSeed, res.CounterOps = c.steals, c.retries, c.seed, c.counterOps
	return res
}

// padCell is a per-worker counter padded to a 64-byte cache line:
// adjacent workers' hot scheduling words must not share a line, or every
// cursor bump invalidates the neighbours' caches (false sharing). Each
// cell is read and written only by its owning worker goroutine, so no
// atomics are needed — an invariant the shareiso check enforces.
//
//hotpath:padded
//hotpath:isolated
type padCell struct {
	n int64
	_ [56]byte
}

// dynSpan is the per-worker [next, hi) range of a block fetched from the
// shared counter, padded like padCell and goroutine-owned like padCell
// (shareiso-checked).
//
//hotpath:padded
//hotpath:isolated
type dynSpan struct {
	next, hi int64
	_        [48]byte
}

// atomicInt64Pad is an atomic counter padded to its own cache line, for
// the genuinely shared counters (remaining tasks, steal stats) that sit
// next to each other in WallStealing.
//
//hotpath:padded
type atomicInt64Pad struct {
	atomic.Int64
	_ [56]byte
}

// wallStaticSched deals each worker a contiguous block of tasks and
// walks it with a per-worker padded cursor.
type wallStaticSched struct {
	n, per  int
	cursors []padCell
}

func newWallStaticSched(n, workers int) *wallStaticSched {
	return &wallStaticSched{n: n, per: (n + workers - 1) / workers, cursors: make([]padCell, workers)}
}

// next implements the static schedule for worker wk.
//
//hotpath:allocfree
func (s *wallStaticSched) next(wk int) (int, bool) {
	lo, hi := wk*s.per, (wk+1)*s.per
	if hi > s.n {
		hi = s.n
	}
	c := int(s.cursors[wk].n)
	s.cursors[wk].n++
	if lo+c >= hi {
		return 0, false
	}
	return lo + c, true
}

func (s *wallStaticSched) counters() wallCounters { return wallCounters{} }

// WallStatic executes the Fock build with a static block schedule on real
// goroutines.
func WallStatic(fw *chem.FockWorkload, h, d *linalg.Matrix, workers int) *WallResult {
	return wallBuild(newWallStaticSched(len(fw.Tasks), workers), fw, h, d, workers, nil)
}

// wallDynSched serves blocks of consecutive tasks from a shared atomic
// counter into per-worker padded spans.
type wallDynSched struct {
	counter  ga.Counter
	n, block int64
	spans    []dynSpan
}

func newWallDynSched(n, workers, block int) *wallDynSched {
	if block < 1 {
		block = 1
	}
	return &wallDynSched{n: int64(n), block: int64(block), spans: make([]dynSpan, workers)}
}

// next implements the dynamic-counter schedule for worker wk.
//
//hotpath:allocfree
func (s *wallDynSched) next(wk int) (int, bool) {
	sp := &s.spans[wk]
	if sp.next < sp.hi {
		v := sp.next
		sp.next++
		return int(v), true
	}
	lo := s.counter.FetchAdd(s.block)
	if lo >= s.n {
		return 0, false
	}
	hi := lo + s.block
	if hi > s.n {
		hi = s.n
	}
	sp.next, sp.hi = lo+1, hi
	return int(lo), true
}

func (s *wallDynSched) counters() wallCounters { return wallCounters{counterOps: s.counter.Ops()} }

// WallDynamic executes the Fock build pulling blocks of `block`
// consecutive tasks from a shared atomic counter (NXTVAL with a chunk
// size, as the simulated dynamic-counter model's F3 sweep studies).
// block < 1 is treated as 1, the classic one-task-per-fetch NXTVAL.
func WallDynamic(fw *chem.FockWorkload, h, d *linalg.Matrix, workers, block int) *WallResult {
	return wallBuild(newWallDynSched(len(fw.Tasks), workers, block), fw, h, d, workers, nil)
}

// Backoff schedule for idle thieves: a few yielded retries, then sleeps
// growing linearly to a cap. Without this, workers that finish early
// hammer StealHalf at 100% CPU until the last task completes, polluting
// WorkerBusy/Elapsed and starving the workers still computing.
const (
	stealSpinRounds  = 4
	stealBackoffStep = 2 * time.Microsecond
	stealBackoffMax  = 200 * time.Microsecond
)

// wallStealSched is the per-worker-deque steal-half schedule: pop
// locally, steal half a victim's deque when empty, back off when steals
// fail. The shared counters are padded so the hot Add/Load traffic does
// not false-share.
type wallStealSched struct {
	deques                     []*deque.Deque
	workers                    int
	seed                       int64
	remaining, steals, retries atomicInt64Pad
	rngs                       []*rand.Rand
}

func newWallStealSched(n, workers int, seed int64) *wallStealSched {
	s := &wallStealSched{deques: make([]*deque.Deque, workers), workers: workers, seed: seed}
	for wk := range s.deques {
		s.deques[wk] = new(deque.Deque)
	}
	per := (n + workers - 1) / workers
	for i := 0; i < n; i++ {
		r := i / per
		if r >= workers {
			r = workers - 1
		}
		s.deques[r].Push(i)
	}
	s.remaining.Store(int64(n))
	s.rngs = make([]*rand.Rand, workers)
	for wk := range s.rngs {
		s.rngs[wk] = rand.New(rand.NewSource(seed + int64(wk)))
	}
	return s
}

// next implements the work-stealing schedule for worker wk.
//
//hotpath:allocfree
func (s *wallStealSched) next(wk int) (int, bool) {
	failed := 0
	for {
		if id, ok := s.deques[wk].Pop(); ok {
			s.remaining.Add(-1)
			return id, true
		}
		if s.remaining.Load() <= 0 {
			return 0, false
		}
		if s.workers > 1 {
			// Pick a victim other than ourselves: self-steals are
			// guaranteed misses (our deque just came up empty).
			victim := s.rngs[wk].Intn(s.workers - 1)
			if victim >= wk {
				victim++
			}
			if loot := s.deques[victim].StealHalf(); loot != nil {
				s.steals.Add(1)
				s.deques[wk].PushBatch(loot)
				failed = 0
				continue
			}
		}
		// Failed round: yield first, then back off with bounded
		// sleeps so the idle tail does not busy-spin.
		s.retries.Add(1)
		failed++
		if failed <= stealSpinRounds {
			runtime.Gosched()
			continue
		}
		pause := time.Duration(failed-stealSpinRounds) * stealBackoffStep
		if pause > stealBackoffMax {
			pause = stealBackoffMax
		}
		time.Sleep(pause)
	}
}

func (s *wallStealSched) counters() wallCounters {
	return wallCounters{steals: s.steals.Load(), retries: s.retries.Load(), seed: s.seed}
}

// WallStealing executes the Fock build with per-worker deques and
// steal-half work stealing on real goroutines. seed drives the
// per-worker victim-selection RNG streams.
func WallStealing(fw *chem.FockWorkload, h, d *linalg.Matrix, workers int, seed int64) *WallResult {
	return wallBuild(newWallStealSched(len(fw.Tasks), workers, seed), fw, h, d, workers, nil)
}

// WallOptions carries the tunables of the wall-clock executors that
// ParallelFockBuilder threads through to every Fock build of an SCF run.
type WallOptions struct {
	Seed  int64 // work-stealing victim-selection seed
	Block int   // dynamic-counter tasks per NXTVAL fetch (<1 means 1)

	// PairBlock, when > 0, re-blocks each workload to tasks of PairBlock
	// bra shell-pairs before executing (chem.Reblock — screening data and
	// Hermite tables are shared, so this costs only task bookkeeping).
	// 0 keeps the workload's own decomposition.
	PairBlock int
}

// newWallSched builds the scheduling discipline for one wall-clock run.
// It is the single point where options meet the executors — no literal
// seeds or block sizes may appear here (regression-tested).
func newWallSched(mode string, n, workers int, opt WallOptions) (wallSched, error) {
	switch mode {
	case "static":
		return newWallStaticSched(n, workers), nil
	case "dynamic":
		return newWallDynSched(n, workers, opt.Block), nil
	case "stealing":
		return newWallStealSched(n, workers, opt.Seed), nil
	default:
		return nil, fmt.Errorf("core: unknown wall-clock mode %q", mode)
	}
}

// wallExec dispatches one wall-clock Fock build by mode name.
func wallExec(mode string, fw *chem.FockWorkload, h, d *linalg.Matrix, workers int, opt WallOptions) (*WallResult, error) {
	sched, err := newWallSched(mode, len(fw.Tasks), workers, opt)
	if err != nil {
		return nil, err
	}
	return wallBuild(sched, fw, h, d, workers, nil), nil
}

// WallUHF runs one unrestricted parallel Fock build: J contracted against
// the total density, Kα/Kβ against the spin densities, through the same
// scheduler implementations and the same allocation-free worker loop as
// the restricted executors (the spin shape is a dispatch inside
// chem.ExecuteTaskAccum, not a separate loop).
func WallUHF(mode string, fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix, workers int, opt WallOptions) (*WallSpinResult, error) {
	sched, err := newWallSched(mode, len(fw.Tasks), workers, opt)
	if err != nil {
		return nil, err
	}
	j, kA, kB, elapsed, busy := wallRunJK(fw, dTot, dA, dB, true, workers, sched, nil)
	res := &WallSpinResult{J: j, KA: kA, KB: kB, Elapsed: elapsed, WorkerBusy: busy}
	c := sched.counters()
	res.Steals, res.StealRetry, res.StealSeed, res.CounterOps = c.steals, c.retries, c.seed, c.counterOps
	return res, nil
}

// reblockCache memoizes WallOptions.PairBlock re-blocking per source
// workload, so an SCF run re-blocks once, not once per iteration. The
// builders that hold one are invoked sequentially (one Fock build per SCF
// iteration), so no locking is needed.
type reblockCache struct {
	src, dst *chem.FockWorkload
}

func (c *reblockCache) get(fw *chem.FockWorkload, block int) *chem.FockWorkload {
	if block < 1 {
		return fw
	}
	if c.src != fw {
		c.src, c.dst = fw, fw.Reblock(block)
	}
	return c.dst
}

// ParallelFockBuilder returns a chem.FockBuilder that runs every Fock
// build of an SCF iteration through the given wall-clock executor. mode
// is "static", "dynamic" or "stealing"; opt supplies the stealing seed,
// the dynamic fetch block and the bra-pair task granularity.
func ParallelFockBuilder(mode string, workers int, opt WallOptions) (chem.FockBuilder, error) {
	// Validate eagerly so a typo fails at setup, not mid-SCF.
	if _, err := newWallSched(mode, 0, 1, opt); err != nil {
		return nil, err
	}
	var cache reblockCache
	return func(fw *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
		res, _ := wallExec(mode, cache.get(fw, opt.PairBlock), h, d, workers, opt)
		return res.F
	}, nil
}

// ParallelUHFFockBuilder is ParallelFockBuilder's unrestricted
// counterpart: a chem.UHFFockBuilder that computes each UHF iteration's
// J/Kα/Kβ through the given wall-clock executor.
func ParallelUHFFockBuilder(mode string, workers int, opt WallOptions) (chem.UHFFockBuilder, error) {
	if _, err := newWallSched(mode, 0, 1, opt); err != nil {
		return nil, err
	}
	var cache reblockCache
	return func(fw *chem.FockWorkload, dTot, dA, dB *linalg.Matrix) (j, kA, kB *linalg.Matrix) {
		res, _ := WallUHF(mode, cache.get(fw, opt.PairBlock), dTot, dA, dB, workers, opt)
		return res.J, res.KA, res.KB
	}, nil
}
