package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
	"execmodels/internal/serve"
)

// benchmarkFile is the subset of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shrink returns w with its SCF system cut to one water molecule, so a
// smoke run takes seconds; policy, basis and code path are unchanged.
func shrink(w workload) workload {
	if w.scf != nil {
		s := *w.scf
		s.waters = 1
		w.scf = &s
	}
	return w
}

func smokeArgs(t *testing.T, trace bool) runArgs {
	a := runArgs{seed: 3, seconds: 1, trace: trace, workers: 2, tmpDir: t.TempDir()}
	if trace {
		a.tracer = newTracer()
	}
	return a
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that exactly the metrics BENCHMARK.json names are emitted,
// with their units, finite values and a passing verdict.
func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		if workloads[i].name != bw.Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, harness %q", i, bw.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range b.EndToEnd {
				if !trace {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range b.PerLayer {
				if trace {
					want[m.Name] = m.Unit
				}
			}
			rep := &report{}
			if err := shrink(w).run(smokeArgs(t, trace), rep); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct() {
				t.Errorf("%s trace=%v: verdict false: %v", w.name, trace, rep.failures)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				if !validName.MatchString(m.Name) {
					t.Errorf("%s: invalid metric name %q", w.name, m.Name)
				}
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s: metric %q emitted twice", w.name, m.Name)
				}
				got[m.Name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, m.Value)
				}
			}
			for name, unit := range want {
				if u, ok := got[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if u != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json %q", w.name, trace, name, u, unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// TestWrongFockBuilderFlipsVerdict injects a Fock builder that is off by
// 1e-6 in one element: every solve must fail the serial comparison and
// count in failed, and the verdict must be false.
func TestWrongFockBuilderFlipsVerdict(t *testing.T) {
	a := smokeArgs(t, false)
	a.build = func(ws *core.WallScheduler, fw *chem.FockWorkload, h, d *linalg.Matrix) (*core.WallResult, error) {
		r, err := ws.Build(fw, h, d)
		if err != nil {
			return nil, err
		}
		r.F.Set(0, 0, r.F.At(0, 0)+1e-6)
		return r, nil
	}
	rep := &report{}
	w, _ := findWorkload("scf-w4-steal")
	if err := shrink(w).run(a, rep); err != nil {
		t.Fatal(err)
	}
	if rep.correct() || rep.failed == 0 || rep.failed != rep.attempted {
		t.Fatalf("wrong builder: correct=%v attempted=%d failed=%d", rep.correct(), rep.attempted, rep.failed)
	}
}

// TestWrongEnergyFailsJob shifts one job class's serial reference by
// 1e-6 hartree: those jobs must count as failed, the others not.
func TestWrongEnergyFailsJob(t *testing.T) {
	x, _, err := startServer(t.TempDir(), scfdConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.stop()
	h2 := serve.JobSpec{Tenant: "acme", Molecule: "h2", Basis: "sto-3g"}
	water := serve.JobSpec{Tenant: "blue", Molecule: "water", Basis: "sto-3g"}
	jobs := []plannedJob{{spec: h2}, {spec: water}, {spec: h2}}
	refs, err := serialReferences(jobs)
	if err != nil {
		t.Fatal(err)
	}
	refs[refKey(&water)] += 1e-6
	s := newSession(x.url, 2, refs, nil)
	defer s.close()
	rep := &report{}
	out := s.run(jobs, rep)
	if !out[0].ok || out[1].ok || !out[2].ok {
		t.Fatalf("ok = %v %v %v, want true false true", out[0].ok, out[1].ok, out[2].ok)
	}
	if rep.attempted != 3 || rep.failed != 1 || rep.correct() {
		t.Fatalf("attempted=%d failed=%d correct=%v", rep.attempted, rep.failed, rep.correct())
	}
	if !strings.Contains(out[1].status.Error, "serial reference") {
		t.Fatalf("failure reason %q", out[1].status.Error)
	}
}

func TestPlanJobsIsSeededWithExactMix(t *testing.T) {
	a, b := planJobs(7, 13, 30e9), planJobs(7, 13, 30e9)
	if len(a) != 390 {
		t.Fatalf("%d jobs, want 390", len(a))
	}
	counts := map[string]int{}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("job %d differs between two plans of one seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrivals out of order at %d", i)
		}
		counts[a[i].spec.Molecule+"/"+a[i].spec.Basis]++
	}
	for _, c := range scfdMix {
		if want := int(math.Round(c.share * 390)); counts[c.molecule+"/"+c.basis] != want {
			t.Errorf("%s/%s: %d jobs, want %d", c.molecule, c.basis, counts[c.molecule+"/"+c.basis], want)
		}
	}
	if c := planJobs(8, 13, 30e9); reflect.DeepEqual(c[:2], a[:2]) {
		t.Error("another seed gave the same arrivals")
	}
}

func TestSummaryLineKeys(t *testing.T) {
	rep := &report{attempted: 2}
	rep.add("solve_s", "s", 1.25)
	line, err := rep.summaryLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(got) != 4 || !strings.Contains(string(line), `"solve_s":{"value":1.25,"unit":"s"}`) {
		t.Fatalf("summary line %s", line)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		p := filepath.Join(dir, name)
		d := detail{Provenance: provenance{Workload: "scf-w4-steal", CPUModel: cpu, NumCPU: 2, GOMAXPROCS: 2},
			Metrics: []metric{{Name: "solve_s", Unit: "s", Value: 1}}}
		if err := writeJSON(p, d); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", "cpu A"), write("b.json", "cpu A"), write("c.json", "cpu B")
	var sb strings.Builder
	if err := compareResults(&sb, a, b); err != nil {
		t.Fatalf("same host: %v", err)
	}
	if err := compareResults(&sb, a, c); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("different hosts compared: %v", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Root: 1, Layer: "chem", Start: 0, End: 100},
		{ID: 2, Parent: 1, Root: 1, Layer: "core", Start: 10, End: 30},
		{ID: 3, Parent: 1, Root: 1, Layer: "core", Start: 20, End: 50},
	}}
	got := tr.selfTimes()
	if math.Abs(got["chem"]-60e-6) > 1e-15 || math.Abs(got["core"]-50e-6) > 1e-15 {
		t.Fatalf("self times %v, want chem 60 ns, core 50 ns", got)
	}
}
