package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/serve"
	"wavepim/internal/wavepim"
)

// cluster-jobs: an in-process coordinator and two workers on loopback,
// driven over the /v1 HTTP API by a closed loop of clients. It is the
// only workload that crosses admission -> dispatch -> poll -> worker
// Session -> report, and its repeats exercise the coordinator's digest
// cache without a worker. Every tuning option stays at its zero value.

const (
	clusterWorkers = 2
	// Set-up is sampled in fresh processes before the first pass and
	// again after every pass, so its median covers the whole run, not
	// the host's speed at one instant.
	clusterSetupChildren = 2
	// clusterHeapPasses is the fixed window of passes whose peak heap
	// counts: the workers keep every finished run, so the heap grows
	// with each pass, and a faster program, which fits more passes into
	// the budget, must not read as a bigger one.
	clusterHeapPasses = 10
	// pollEvery is the client's fixed GET /v1/jobs/{id} cadence, small
	// against the ~100 ms job time.
	pollEvery  = 5 * time.Millisecond
	jobTimeout = 60 * time.Second
)

// clusterRig is the running cluster.
type clusterRig struct {
	coord   *cluster.Coordinator
	workers []*serve.Server
	hbs     []*cluster.Heartbeater
	servers []*http.Server
	url     string // coordinator base URL
	client  *http.Client
}

// serveLoopback serves h on an ephemeral loopback port.
func (r *clusterRig) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	r.servers = append(r.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func startRig() (*clusterRig, error) {
	r := &clusterRig{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterClients}}}
	r.coord = cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var err error
	if r.url, err = r.serveLoopback(r.coord.Handler()); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < clusterWorkers; i++ {
		w := serve.NewServer(serve.Options{})
		r.workers = append(r.workers, w)
		wurl, err := r.serveLoopback(w.Handler())
		if err != nil {
			r.close()
			return nil, err
		}
		hb := &cluster.Heartbeater{Coordinator: r.url, ID: fmt.Sprintf("w%d", i), URL: wurl}
		if err := hb.Start(); err != nil {
			r.close()
			return nil, fmt.Errorf("register worker %d: %w", i, err)
		}
		r.hbs = append(r.hbs, hb)
	}
	var ws []json.RawMessage
	if err := r.getJSON("/v1/workers", &ws); err != nil || len(ws) != clusterWorkers {
		r.close()
		return nil, fmt.Errorf("coordinator lists %d workers (%v), want %d", len(ws), err, clusterWorkers)
	}
	return r, nil
}

// close stops the heartbeaters, the coordinator's dispatchers, the
// workers' executors and the HTTP servers, waiting for each.
func (r *clusterRig) close() {
	for _, hb := range r.hbs {
		hb.Stop()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, w := range r.workers {
		w.Drain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range r.servers {
		s.Shutdown(ctx)
	}
	r.client.CloseIdleConnections()
}

func (r *clusterRig) getJSON(path string, v any) error {
	b, err := r.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// jobRecord is the client's view of one job.
type jobRecord struct {
	id          string
	start, end  time.Time
	submitted   time.Time // POST answered
	cachedReply bool      // POST answered 200 with the finished report
	report      []byte    // terminal report bytes
}

// runJob submits spec and polls until the job is terminal.
func (r *clusterRig) runJob(spec cluster.JobSpec) (jobRecord, error) {
	rec := jobRecord{id: spec.ID}
	body, err := json.Marshal(spec)
	if err != nil {
		return rec, err
	}
	rec.start = time.Now()
	resp, err := r.client.Post(r.url+cluster.APIPrefix+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submitted = time.Now()
	if err != nil {
		return rec, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		rec.cachedReply = true
	case http.StatusAccepted:
	default:
		return rec, fmt.Errorf("submit %s: status %d: %s", spec.ID, resp.StatusCode, b)
	}
	for {
		var st struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return rec, fmt.Errorf("job %s: %w", spec.ID, err)
		}
		switch st.Status {
		case "done":
			rec.end, rec.report = time.Now(), b
			return rec, nil
		case "failed":
			return rec, fmt.Errorf("job %s failed: %s", spec.ID, b)
		}
		if time.Since(rec.start) > jobTimeout {
			return rec, fmt.Errorf("job %s not done after %v", spec.ID, jobTimeout)
		}
		time.Sleep(pollEvery)
		if b, err = r.get(cluster.APIPrefix + "/jobs/" + spec.ID); err != nil {
			return rec, err
		}
	}
}

func (r *clusterRig) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b, err
}

// clusterSetup starts the cluster and runs one warm-up job per class, so
// each worker's plan cache and connections are warm before timing.
func clusterSetup() (*clusterRig, float64, error) {
	t0 := time.Now()
	r, err := startRig()
	if err != nil {
		return nil, 0, err
	}
	for _, spec := range warmupJobs() {
		if _, err := r.runJob(spec); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return r, time.Since(t0).Seconds(), nil
}

func setupClusterJobs(uint64) (float64, error) {
	r, sec, err := clusterSetup()
	if err != nil {
		return 0, err
	}
	r.close()
	return sec, nil
}

func runClusterJobs(cfg runConfig) (*report, error) {
	r, setupSec, err := clusterSetup()
	if err != nil {
		return nil, err
	}
	defer r.close()
	misses := wavepim.PlanCacheSnapshot().Misses
	children, err := childSetups("cluster-jobs", cfg.seed, clusterSetupChildren)
	if err != nil {
		return nil, err
	}
	setup := append([]float64{setupSec}, children...)

	rep := &report{}
	var mu sync.Mutex
	// One entry per (pass, client): the client's job stream and what the
	// client saw of each job.
	var plans [][]clusterJob
	var records [][]jobRecord
	var spans *spanLog

	onePass := func(p int, traced bool) error {
		if p >= maxPasses {
			return fmt.Errorf("more than %d passes", maxPasses)
		}
		var wg sync.WaitGroup
		errs := make([]error, clusterClients)
		recs := make([][]jobRecord, clusterClients)
		for c := 0; c < clusterClients; c++ {
			plans = append(plans, clusterPass(cfg.seed, p, c))
			wg.Add(1)
			go func(c int, jobs []clusterJob) {
				defer wg.Done()
				for _, j := range jobs {
					mu.Lock()
					rep.attempted++
					mu.Unlock()
					rec, err := r.runJob(j.Spec)
					if err != nil {
						mu.Lock()
						rep.failed++
						mu.Unlock()
						errs[c] = err
						return
					}
					recs[c] = append(recs[c], rec)
					if traced {
						spans.add(rec.id, "job", rec.start, rec.end, c+1)
						spans.add("POST /v1/jobs", "cluster.submit", rec.start, rec.submitted, c+1)
					}
				}
			}(c, plans[len(plans)-1])
		}
		wg.Wait()
		records = append(records, recs...)
		return errors.Join(errs...)
	}

	// A failed or refused job, or a failed check, ends the run: it
	// reports the failure and no numbers.
	untracedBudget, tracedBudget, least := splitBudget(cfg)
	after := func(int) error {
		more, err := childSetups("cluster-jobs", cfg.seed, 1)
		setup = append(setup, more...)
		return err
	}
	untraced, err := runPasses(untracedBudget, least, func(p int) error { return onePass(p, false) }, after)
	var traced []pass
	tracedFrom := len(untraced) * clusterClients // first traced stream
	if err == nil && cfg.trace {
		spans = newSpanLog()
		traced, err = runPasses(tracedBudget, least, func(p int) error { return onePass(len(untraced)+p, true) }, after)
	}
	var views []cluster.JobView
	if err == nil {
		err = r.getJSON(cluster.APIPrefix+"/jobs", &views)
	}
	byID := map[string]cluster.JobView{}
	for _, v := range views {
		byID[v.ID] = v
	}
	if err == nil {
		if err = checkClusterJobs(plans, records, byID); err != nil {
			// A run that fails reports no metrics, so the retry count,
			// which a passing run always reports as 0, goes with the error.
			retried := 0
			for _, v := range views {
				retried += v.Attempts
			}
			err = fmt.Errorf("%w (%d retried dispatches over %d jobs)", err, retried, len(views))
		}
	}
	if rep.checkErr = err; err != nil {
		return rep, nil
	}

	var e2eMs []float64
	for _, recs := range records[:tracedFrom] {
		for _, rec := range recs {
			e2eMs = append(e2eMs, rec.end.Sub(rec.start).Seconds()*1e3)
		}
	}
	rep.e2e = endToEnd(setup, untraced, untraced[:min(len(untraced), clusterHeapPasses)], e2eMs)
	if cfg.trace {
		rep.layers = clusterLayerMetrics(plans[tracedFrom:], records[tracedFrom:], byID)
		rep.layers["wavepim.plan_cache_misses"] = metric{float64(misses), "count"}
		rep.layers["bench.trace_overhead_s"] = metric{median(walls(traced)) - median(walls(untraced)), "s"}
		if err := spans.write("cluster-jobs", cfg.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkClusterJobs: every job is done with no retried dispatch, every
// fresh job ran on a worker, and every repeat was served by the digest
// cache with its original's digest and report bytes.
func checkClusterJobs(plans [][]clusterJob, records [][]jobRecord, byID map[string]cluster.JobView) error {
	for p, jobs := range plans {
		if len(records[p]) != len(jobs) {
			return fmt.Errorf("stream %d: %d of %d jobs finished", p, len(records[p]), len(jobs))
		}
		for i, j := range jobs {
			v, ok := byID[j.Spec.ID]
			switch {
			case !ok:
				return fmt.Errorf("job %s missing from /v1/jobs", j.Spec.ID)
			case v.Status != "done":
				return fmt.Errorf("job %s: status %q", v.ID, v.Status)
			case v.Attempts != 0:
				return fmt.Errorf("job %s: %d retried dispatches", v.ID, v.Attempts)
			case v.Cached != (j.Repeat >= 0) || records[p][i].cachedReply != v.Cached:
				return fmt.Errorf("job %s: cached %v (reply %v), repeat %v", v.ID, v.Cached, records[p][i].cachedReply, j.Repeat >= 0)
			}
			if j.Repeat < 0 {
				continue
			}
			orig := byID[jobs[j.Repeat].Spec.ID]
			if v.Digest != orig.Digest || !bytes.Equal(records[p][i].report, records[p][j.Repeat].report) {
				return fmt.Errorf("repeat %s of %s: digest %s vs %s or report bytes differ", v.ID, orig.ID, v.Digest, orig.Digest)
			}
		}
	}
	return nil
}

// clusterLayerMetrics splits the traced jobs' latency by layer: the
// coordinator's own stage decomposition (JobView.Stages), the worker's
// run time (RunView.WallSec in the report), and what is left over.
func clusterLayerMetrics(plans [][]clusterJob, records [][]jobRecord, byID map[string]cluster.JobView) map[string]metric {
	var submit, queue, dispatch, exec, run, overhead []float64
	runByClass := map[string][]float64{}
	var jobs, cached, attempts int
	for p, recs := range records {
		for i, rec := range recs {
			v := byID[plans[p][i].Spec.ID]
			jobs++
			attempts += v.Attempts
			submit = append(submit, rec.submitted.Sub(rec.start).Seconds()*1e3)
			if v.Cached {
				cached++
				continue
			}
			var rv serve.RunView
			if err := json.Unmarshal(rec.report, &rv); err != nil {
				continue
			}
			queue = append(queue, v.Stages.QueueSec*1e3)
			dispatch = append(dispatch, v.Stages.DispatchSec*1e3)
			exec = append(exec, v.Stages.ExecSec*1e3)
			run = append(run, rv.WallSec*1e3)
			eq := plans[p][i].Spec.Equation
			runByClass[eq] = append(runByClass[eq], rv.WallSec*1e3)
			overhead = append(overhead, rec.end.Sub(rec.start).Seconds()*1e3-rv.WallSec*1e3)
		}
	}
	ms := func(xs []float64, q float64) metric { return metric{quantile(xs, q), "ms"} }
	out := map[string]metric{
		"cluster.submit_ms":        ms(submit, 0.5),
		"cluster.queue_ms.p50":     ms(queue, 0.5),
		"cluster.queue_ms.p95":     ms(queue, 0.95),
		"cluster.dispatch_ms.p50":  ms(dispatch, 0.5),
		"cluster.dispatch_ms.p95":  ms(dispatch, 0.95),
		"cluster.exec_ms.p50":      ms(exec, 0.5),
		"cluster.exec_ms.p95":      ms(exec, 0.95),
		"serve.run_ms.p50":         ms(run, 0.5),
		"serve.run_ms.p95":         ms(run, 0.95),
		"cluster.overhead_ms":      ms(overhead, 0.5),
		"cluster.cache_hit_frac":   {float64(cached) / float64(jobs), "ratio"},
		"cluster.attempts_per_job": {float64(attempts) / float64(jobs), "ratio"},
	}
	// Each class's worker time, which the step counts equalise.
	for _, cl := range jobClasses {
		out["serve.run_ms.p50."+cl.equation] = ms(runByClass[cl.equation], 0.5)
	}
	return out
}
