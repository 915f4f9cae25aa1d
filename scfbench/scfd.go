package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/serve"
)

// jobClass is one entry of the scfd-open job mix.
type jobClass struct {
	molecule, basis string
	share           float64
}

// scfdMix is heavy-tailed: serial service times on a 2-CPU Xeon host
// are about 0.5 ms for H2, 60 ms for water in STO-3G and 280 ms for
// water in 6-31G. The median job is a water STO-3G job (60%) and the
// 95th percentile falls inside the 6-31G class (10%), so neither
// percentile sits on a class boundary, where it would jump between
// classes from seed to seed. H2 jobs are nearly pure serving cost:
// HTTP, queueing and fsync'd spool writes.
var scfdMix = []jobClass{
	{"h2", "sto-3g", 0.30},
	{"water", "sto-3g", 0.60},
	{"water", "6-31g", 0.10},
}

// scfdTenants are the fair-queue weights; jobs are drawn from tenants in
// proportion to them.
var scfdTenants = []struct {
	name   string
	weight float64
}{{"acme", 3}, {"blue", 1}, {"guest", 1}}

// scfdRate is the offered load in jobs per second, frozen so every run
// and every commit offers the same load: about 0.25 of the 33 jobs/s
// capacity that -calibrate measured for this mix on a 2-vCPU Xeon host
// (Go 1.24). That host's speed drifts by up to 60% with its neighbours'
// load; at 0.4 of capacity such a slowdown pushed the queue towards
// saturation and p95 from 0.3 s to 2.6 s, at 0.25 latency stays roughly
// proportional to service time.
const scfdRate = 8.0

// pollDelay is how long the load generator waits before polling a job
// that has been outstanding for elapsed: a twentieth of that, within
// [0.5 ms, 20 ms]. The poll overshoots a job's true latency by at most
// 5% while keeping the status requests, which compete with the server
// for the same CPUs, to a few dozen per job.
func pollDelay(elapsed time.Duration) time.Duration {
	return min(max(elapsed/20, 500*time.Microsecond), 20*time.Millisecond)
}

// plannedJob is one open-loop arrival.
type plannedJob struct {
	due  time.Duration // offset from the session start
	spec serve.JobSpec
}

// refKey identifies the serial reference energy a job must reproduce.
func refKey(s *serve.JobSpec) string {
	return fmt.Sprintf("%s|%s|%d|%d", s.Molecule, s.Basis, s.Seed, len(s.Geometry))
}

// planJobs draws round(rate × window) arrivals for the window: the
// class counts are the mix shares of that total exactly, and the
// arrival times are uniform over the window, i.e. a Poisson process
// conditioned on its count. Order, times and tenants come from seed; the
// offered work is the same for every seed, so seeds differ only in how
// arrivals cluster.
func planJobs(seed int64, rate float64, window time.Duration) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * window.Seconds()))
	classes := make([]jobClass, 0, n)
	var acc float64
	for _, c := range scfdMix {
		acc += c.share
		for len(classes) < int(math.Round(acc*float64(n))) {
			classes = append(classes, c)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	var tw float64
	for _, t := range scfdTenants {
		tw += t.weight
	}
	jobs := make([]plannedJob, len(classes))
	for i, c := range classes {
		v, tenant := rng.Float64()*tw, scfdTenants[len(scfdTenants)-1].name
		for _, t := range scfdTenants {
			if v < t.weight {
				tenant = t.name
				break
			}
			v -= t.weight
		}
		jobs[i] = plannedJob{
			due:  time.Duration(rng.Float64() * float64(window)),
			spec: serve.JobSpec{Tenant: tenant, Molecule: c.molecule, Basis: c.basis},
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	return jobs
}

// serialReferences computes, for every distinct (molecule, basis, seed)
// among jobs, the serial RHF energy with the options scfd uses.
func serialReferences(jobs []plannedJob) (map[string]float64, error) {
	refs := map[string]float64{}
	for i := range jobs {
		s := &jobs[i].spec
		k := refKey(s)
		if _, ok := refs[k]; ok {
			continue
		}
		mol, err := s.BuildMolecule()
		if err != nil {
			return nil, err
		}
		bs, err := chem.NewBasis(s.Basis, mol)
		if err != nil {
			return nil, err
		}
		maxIter := s.MaxIter
		if maxIter == 0 {
			maxIter = 100
		}
		r, err := chem.RunSCF(mol, bs, chem.SCFOptions{MaxIter: maxIter, UseDIIS: true}, nil)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", k, err)
		}
		if !r.Converged {
			return nil, fmt.Errorf("reference for %s did not converge", k)
		}
		refs[k] = r.Energy
	}
	return refs, nil
}

// scfdServer is an in-process scfd behind a loopback listener.
type scfdServer struct {
	srv   *serve.Server
	http  *http.Server
	url   string
	spool string
	done  chan struct{} // closed when Serve has returned
}

// startServer builds a server over a fresh temp spool, starts its
// workers and listener, and returns once /healthz answers. The returned
// duration is the set-up time.
func startServer(tmpDir string, cfg serve.Config) (*scfdServer, time.Duration, error) {
	spool, err := os.MkdirTemp(tmpDir, "spool-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	cfg.SpoolDir = spool
	cfg.Logf = func(string, ...any) {}
	srv, err := serve.New(cfg)
	if err != nil {
		os.RemoveAll(spool)
		return nil, 0, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(spool)
		return nil, 0, err
	}
	x := &scfdServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), spool: spool, done: make(chan struct{})}
	go func() {
		defer close(x.done)
		x.http.Serve(ln)
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(x.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	setup := time.Since(t0)
	if err != nil {
		x.stop()
		return nil, 0, err
	}
	return x, setup, nil
}

// stop shuts the listener, drains the workers and removes the spool.
func (x *scfdServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	x.http.Shutdown(ctx)
	<-x.done
	x.srv.Drain()
	os.RemoveAll(x.spool)
}

// jobOutcome is what the generator observed of one job.
type jobOutcome struct {
	ok       bool
	rejected bool
	late     time.Duration // send time minus due time
	submit   time.Duration // POST round trip
	latency  time.Duration // terminal state seen minus due time
	status   serve.JobStatus
}

// session is an open-loop load generator over at most conns connections.
type session struct {
	url    string
	refs   map[string]float64
	client *http.Client
	tr     *tracer
}

// run sends every job at its due time and follows it to a terminal
// state by polling its status. It returns once every job has ended.
func (s *session) run(jobs []plannedJob, rep *report) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := range jobs {
		due := start.Add(jobs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = s.job(&jobs[i].spec, due)
		}(i, due)
	}
	wg.Wait()
	for i := range out {
		rep.attempted++
		if !out[i].ok {
			rep.fail("job %d (%s %s): %s", i, jobs[i].spec.Molecule, jobs[i].spec.Basis, out[i].status.Error)
		}
	}
	return out
}

// job submits one spec at due and polls it to a terminal state. A 429,
// a failed job or an energy off the serial reference is a failure.
func (s *session) job(spec *serve.JobSpec, due time.Time) (o jobOutcome) {
	o.late = time.Since(due)
	root := s.tr.begin(0, "serve", "job")
	defer s.tr.end(root)
	body, err := json.Marshal(spec)
	if err != nil {
		o.status.Error = err.Error()
		return o
	}
	t0 := time.Now()
	sub := s.tr.begin(root, "serve", "submit")
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.tr.end(sub)
		o.status.Error = err.Error()
		return o
	}
	var acc struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	o.submit = time.Since(t0)
	s.tr.end(sub)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		o.status.Error = "rejected: " + acc.Error
		return o
	case resp.StatusCode != http.StatusAccepted || err != nil:
		o.status.Error = fmt.Sprintf("submit: %s %s %v", resp.Status, acc.Error, err)
		return o
	}
	poll := s.tr.begin(root, "serve", "wait")
	deadline := time.Now().Add(60 * time.Second)
	for {
		time.Sleep(pollDelay(time.Since(due)))
		st, err := s.status(acc.ID)
		if err != nil {
			s.tr.end(poll)
			o.status.Error = err.Error()
			return o
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			o.latency = time.Since(due)
			o.status = st
			break
		}
		if time.Now().After(deadline) {
			s.tr.end(poll)
			o.status.Error = "no terminal state within 60 s"
			return o
		}
	}
	s.tr.end(poll)
	ref, known := s.refs[refKey(spec)]
	switch {
	case o.status.State != serve.StateDone:
		o.status.Error = "job failed: " + o.status.Error
	case !o.status.Converged:
		o.status.Error = "job did not converge"
	case !known:
		o.status.Error = "no serial reference"
	case !(math.Abs(o.status.Energy-ref) <= energyTol):
		o.status.Error = fmt.Sprintf("energy %.12f differs from the serial reference %.12f", o.status.Energy, ref)
	default:
		o.ok = true
	}
	return o
}

func (s *session) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, errors.New("status: " + resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// newSession connects a generator to url over at most conns connections.
func newSession(url string, conns int, refs map[string]float64, tr *tracer) *session {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &session{url: url, refs: refs, tr: tr, client: &http.Client{Transport: t, Timeout: 30 * time.Second}}
}

func (s *session) close() { s.client.Transport.(*http.Transport).CloseIdleConnections() }

// scfdConfig is the server under test: nproc job workers, each job's
// Fock build serial, a checkpoint after every iteration.
func scfdConfig(workers int) serve.Config {
	w := map[string]float64{}
	for _, t := range scfdTenants {
		w[t.name] = t.weight
	}
	return serve.Config{Workers: workers, FockWorkers: 1, CheckpointEvery: 1, TenantWeights: w}
}

// setupRepeats is how many times a run starts a server to time set-up.
const setupRepeats = 9

// outcomeStats reports the serve-layer view of a session.
func outcomeStats(out []jobOutcome, rep *report) {
	var submit, wait, run, iters, late []float64
	var rejected, done int
	for _, o := range out {
		late = append(late, ms(o.late))
		if o.rejected {
			rejected++
		}
		if !o.ok {
			continue
		}
		done++
		submit = append(submit, ms(o.submit))
		wait = append(wait, o.status.QueueWaitMs)
		run = append(run, o.status.RunMs)
		iters = append(iters, float64(o.status.Iter))
	}
	rep.addPct("serve.submit_ms.p50", "ms", submit, 50)
	rep.addPct("serve.submit_ms.p95", "ms", submit, 95)
	rep.addPct("serve.queue_wait_ms.p50", "ms", wait, 50)
	rep.addPct("serve.queue_wait_ms.p95", "ms", wait, 95)
	rep.addPct("serve.run_ms.p50", "ms", run, 50)
	rep.addPct("serve.run_ms.p95", "ms", run, 95)
	rep.add("serve.reject_frac", "ratio", float64(rejected)/float64(len(out)))
	rep.addMedian("serve.iterations_per_job", "count", iters)
	rep.add("serve.jobs_done", "count", float64(done))
	rep.addPct("serve.gen_late_ms.p95", "ms", late, 95)
}

func latencies(out []jobOutcome) (lat, run []float64) {
	for _, o := range out {
		if o.ok {
			lat = append(lat, ms(o.latency))
			run = append(run, o.status.RunMs/1e3)
		}
	}
	return lat, run
}

// runSCFDWorkload runs scfd-open: set-up timed setupRepeats times, then
// open-loop Poisson load at scfdRate for the window (untraced), or for
// half the window untraced and half traced, followed by the layer
// probes on the mix's largest job (traced).
func runSCFDWorkload(a runArgs, rep *report) error {
	window := time.Duration(a.seconds) * time.Second
	plan := planJobs(a.seed, scfdRate, window)
	refs, err := serialReferences(plan)
	if err != nil {
		return err
	}
	var setups []float64
	var x *scfdServer
	for i := 0; i < setupRepeats; i++ {
		srv, setup, err := startServer(a.tmpDir, scfdConfig(a.workers))
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if i < setupRepeats-1 {
			srv.stop()
		} else {
			x = srv
		}
	}
	defer x.stop()

	if !a.trace {
		heap := startHeapSampler(250 * time.Millisecond)
		s := newSession(x.url, a.workers, refs, nil)
		defer s.close()
		out := s.run(plan, rep)
		lat, run := latencies(out)
		rep.addMedian("setup_s", "s", setups)
		rep.addMedian("solve_s", "s", run)
		rep.addPct("job_p50_ms", "ms", lat, 50)
		rep.addPct("job_p95_ms", "ms", lat, 95)
		rep.addMedian("heap_peak_mb", "MB", heap.stop())
		return nil
	}

	var half []plannedJob
	for _, j := range plan {
		if j.due < window/2 {
			half = append(half, j)
		}
	}
	plain := newSession(x.url, a.workers, refs, nil)
	defer plain.close()
	latA, _ := latencies(plain.run(half, rep))
	traced := newSession(x.url, a.workers, refs, a.tracer)
	defer traced.close()
	outB := traced.run(half, rep)
	latB, _ := latencies(outB)
	rep.add("trace_overhead_frac", "ratio", median(latB)/median(latA)-1)
	outcomeStats(outB, rep)

	// scfd-open's jobs run serial Fock builds and bypass core; the
	// layer probes run on the mix's largest job, water in 6-31G, with
	// the stealing policy standing in for core.
	c, err := newSCFCase(scfSpec{waters: 1, basis: "6-31g", geomSeed: 1, policy: "stealing"}, a.seed, a.workers)
	if err != nil {
		return err
	}
	c.build = serialBuild
	var ph scfPhase
	c.runPhase(&ph, time.Now(), 5, a.tracer, rep)
	return layerReport(c, &ph, serve.JobSpec{Tenant: "acme", Molecule: "water", Basis: "6-31g"}, a, rep)
}

// runCalibrate measures scfd's capacity for the job mix: a burst of
// 40 jobs per window second, all due at once, keeps every worker busy,
// and jobs over makespan is the capacity. scfdRate is frozen at about
// 0.6 of this figure.
func runCalibrate(a runArgs) error {
	plan := planJobs(a.seed, 40, time.Duration(a.seconds)*time.Second)
	for i := range plan {
		plan[i].due = 0
	}
	refs, err := serialReferences(plan)
	if err != nil {
		return err
	}
	x, _, err := startServer(a.tmpDir, scfdConfig(a.workers))
	if err != nil {
		return err
	}
	defer x.stop()
	s := newSession(x.url, a.workers, refs, nil)
	defer s.close()
	rep := &report{}
	start := time.Now()
	s.run(plan, rep)
	el := time.Since(start).Seconds()
	done := rep.attempted - rep.failed
	fmt.Printf("capacity %.1f jobs/s (%d done, %d failed in %.1f s); 0.6x = %.1f jobs/s\n", float64(done)/el, done, rep.failed, el, 0.6*float64(done)/el)
	return nil
}
