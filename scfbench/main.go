// Command scfbench is the repository's benchmark: it runs one named
// workload against the program's public entry points (chem.RunSCF with a
// core.WallScheduler-backed FockBuilder, and serve.New behind a loopback
// listener), verifies every result against the serial reference path,
// and prints every metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"solve_s": {"value": 4.81, "unit": "s"}, ...}}
//
// Usage, from the root of a checkout:
//
//	bash scfbench/run.sh --workload scf-w4-steal --seed 1 --seconds 30 --trace 0
//	bash scfbench/run.sh -compare a.json b.json
//	bash scfbench/run.sh -calibrate --seconds 10
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and the tracing overhead. Each run also writes its
// full record (provenance, sample counts, quartiles, per-layer self
// times) under .bench_build/results, which -compare reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runArgs is one invocation's settings.
type runArgs struct {
	seed    int64
	seconds int
	trace   bool
	workers int
	tmpDir  string  // scratch spools, removed when the run ends
	tracer  *tracer // non-nil on traced runs
	build   buildFunc
}

// workload is one named benchmark workload: an SCF solve (scf set) or
// the scfd open-loop load.
type workload struct {
	name string
	scf  *scfSpec
}

var workloads = []workload{
	{"scf-w4-steal", &scfSpec{waters: 4, basis: "sto-3g", geomSeed: 7, policy: "stealing"}},
	{"scf-w2d-feedback", &scfSpec{waters: 2, basis: "6-31g*", geomSeed: 7, policy: "persistence-feedback"}},
	{"scfd-open", nil},
}

func (w workload) run(a runArgs, rep *report) error {
	if w.scf != nil {
		return runSCFWorkload(*w.scf, a, rep)
	}
	return runSCFDWorkload(a, rep)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runLimit bounds a whole run; the harness exits with an error rather
// than overrun it.
const runLimit = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: scf-w4-steal | scf-w2d-feedback | scfd-open")
	seed := flag.Int64("seed", 1, "seed for the generated inputs (geometry orientation, arrivals, job mix)")
	seconds := flag.Int("seconds", 30, "measuring window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced phase")
	compare := flag.Bool("compare", false, "compare two result files given as arguments (refused across hosts)")
	calibrate := flag.Bool("calibrate", false, "measure scfd's closed-loop capacity in jobs per second and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("--seconds must be 1..60 and --trace 0 or 1"))
	}

	a := runArgs{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU()}
	out := ".bench_build" // every file a run writes lives here, in the checkout
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		fatal(err)
	}
	a.tmpDir = tmp
	timer := time.AfterFunc(runLimit, func() {
		os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "scfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	err = run(*name, *calibrate, a, out)
	timer.Stop()
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
}

func run(name string, calibrate bool, a runArgs, out string) error {
	if calibrate {
		return runCalibrate(a)
	}
	w, ok := findWorkload(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (valid: %v)", name, names)
	}
	if a.trace {
		a.tracer = newTracer()
	}
	prov := newProvenance(w.name, a.seed, a.seconds, a.trace, a.workers)
	fmt.Printf("scfbench %s seed=%d seconds=%d trace=%v workers=%d nproc=%d gomaxprocs=%d cpu=%q go=%s source=%s degenerate=%v\n",
		w.name, a.seed, a.seconds, a.trace, a.workers, prov.NumCPU, prov.GOMAXPROCS, prov.CPUModel, prov.GoVersion, prov.Source, prov.Degenerate)

	rep := &report{}
	if err := w.run(a, rep); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	sort.SliceStable(rep.metrics, func(i, j int) bool { return rep.metrics[i].Name < rep.metrics[j].Name })
	printTable(os.Stdout, rep)
	for _, f := range rep.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	verdict := "Output is correct"
	if !rep.correct() {
		verdict = "Output is NOT correct"
	}
	fmt.Printf("  %s: %d attempted, %d failed\n", verdict, rep.attempted, rep.failed)

	d := detail{Provenance: prov, Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Failures: rep.failures, Metrics: finite(rep.metrics), SelfTimeMs: a.tracer.selfTimes()}
	tag := fmt.Sprintf("%s-seed%d-trace%v", w.name, a.seed, a.trace)
	if err := writeJSON(filepath.Join(out, "results", tag+".json"), d); err != nil {
		return err
	}
	if err := a.tracer.write(filepath.Join(out, "traces", tag+".json")); err != nil {
		return err
	}
	line, err := rep.summaryLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scfbench:", err)
	os.Exit(1)
}
