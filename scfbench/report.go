package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"execmodels/internal/stats"
)

// metric is one reported number. N is the sample count behind it and
// Q1/Q3 its within-run quartiles when it summarizes several samples.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// report accumulates one run's verdicts and metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

// fail records a failed solve or job; it contributes no timing.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add records a single measured value.
func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: 1})
}

// addPct records the p-th percentile of xs with its sample count and
// quartiles.
func (r *report) addPct(name, unit string, xs []float64, p float64) {
	if len(xs) == 0 {
		r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: math.NaN()})
		return
	}
	r.metrics = append(r.metrics, metric{
		Name: name, Unit: unit, Value: stats.Percentile(xs, p), N: len(xs),
		Q1: stats.Percentile(xs, 25), Q3: stats.Percentile(xs, 75),
	})
}

// addMedian records the median of xs.
func (r *report) addMedian(name, unit string, xs []float64) { r.addPct(name, unit, xs, 50) }

// correct is the run's verdict: something was attempted, nothing failed
// and every metric is a finite number.
func (r *report) correct() bool {
	if r.attempted == 0 || r.failed > 0 {
		return false
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// finite returns a copy of ms with every NaN or infinite value
// replaced by -1: JSON has no NaN, and such a value already makes the
// verdict false.
func finite(ms []metric) []metric {
	out := append([]metric(nil), ms...)
	for i, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out[i].Value = -1
		}
	}
	return out
}

// summaryLine is the last line of standard output.
func (r *report) summaryLine() ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range finite(r.metrics) {
		ms[m.Name] = val{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
}

// provenance names the host, toolchain, sources and seeds behind a
// result. Two results are comparable only when their hosts match.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Source is a content hash of the program's Go sources and go.mod;
	// the benchmark runs from checkouts that are not git repositories,
	// so the hash stands in for the commit.
	Source string `json:"source_sha256"`
	// Workers is the parallelism the workload asked for; Degenerate
	// flags a row whose workers exceed the host's CPUs.
	Workers    int       `json:"workers"`
	Degenerate bool      `json:"degenerate"`
	Started    time.Time `json:"started"`
}

// hostKey is the part of provenance that must match before two results
// may be compared.
func (p provenance) hostKey() string {
	return fmt.Sprintf("%s|nproc=%d|gomaxprocs=%d|%s/%s", p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.GOOS, p.GOARCH)
}

func newProvenance(workload string, seed int64, seconds int, trace bool, workers int) provenance {
	return provenance{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Source:  sourceHash("."),
		Workers: workers, Degenerate: workers > runtime.NumCPU(),
		Started: time.Now().UTC(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes every .go file and go.mod under root (sorted by
// path), skipping hidden directories such as the build cache.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// detail is the full record of one run, written under .bench_build/results
// and read back by -compare.
type detail struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    []metric           `json:"metrics"`
	SelfTimeMs map[string]float64 `json:"self_time_ms,omitempty"`
}

// printTable writes the human-readable metric table.
func printTable(w io.Writer, r *report) {
	for _, m := range r.metrics {
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, spread)
	}
}

// compareResults prints the per-metric ratio b/a of two detail files,
// refusing when they come from different hosts.
func compareResults(w io.Writer, pathA, pathB string) error {
	var a, b detail
	for _, x := range []struct {
		path string
		d    *detail
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.d); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if ka, kb := a.Provenance.hostKey(), b.Provenance.hostKey(); ka != kb {
		return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", ka, kb)
	}
	if a.Provenance.Workload != b.Provenance.Workload || a.Provenance.Trace != b.Provenance.Trace {
		return fmt.Errorf("refusing to compare different workloads or trace modes")
	}
	for _, ma := range a.Metrics {
		for _, mb := range b.Metrics {
			if ma.Name == mb.Name && ma.Value != 0 {
				fmt.Fprintf(w, "%-28s %14.6g %14.6g  x%.4f %s\n", ma.Name, ma.Value, mb.Value, mb.Value/ma.Value, ma.Unit)
			}
		}
	}
	return nil
}

// liveHeapMB reads the live heap: the bytes the last GC marked
// reachable, in MiB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapSampler forces a collection every period and records the live
// heap it finds, for servers whose boundaries are crossed by many
// goroutines at once. A forced collection makes each sample the exact
// reachable heap at that moment, not whatever the last cycle marked;
// each sample is the peak of its one-period window.
type heapSampler struct {
	halt, done chan struct{}
	samples    []float64 // written by the sampler goroutine, read after done
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{halt: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for halted := false; !halted; {
			select {
			case <-h.halt:
				halted = true
			case <-t.C:
			}
			runtime.GC()
			h.samples = append(h.samples, liveHeapMB())
		}
	}()
	return h
}

// stop takes a last sample, ends the sampler and returns the samples.
func (h *heapSampler) stop() []float64 {
	close(h.halt)
	<-h.done
	return h.samples
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, 50)
}

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (stats.Percentile(xs, 75) - stats.Percentile(xs, 25)) / m
}
