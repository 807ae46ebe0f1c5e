package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavepim/internal/cluster/trace"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
)

// The coordinator. Submissions pass per-tenant admission control, wait
// in priority queues, and are dispatched to the consistent-hash owner of
// their job id. Dispatch is at-least-once on top of the workers'
// idempotent /runs, but budgeted: every bounce (transport failure, 503
// backpressure, lost run) consumes one unit of the job's retry budget
// and costs a capped-exponential, deterministically jittered backoff;
// a job that exhausts its budget terminates as "failed" with a typed
// *ErrRetriesExhausted instead of bouncing forever. Per-worker circuit
// breakers stop dispatch to a flapping worker until a half-open probe
// proves recovery, and an optional append-only journal makes the whole
// job table survive a coordinator crash (see journal.go).

// cjob is one coordinator-tracked job.
type cjob struct {
	mu       sync.Mutex
	id       string
	tenant   string
	priority Priority
	digest   uint64
	body     []byte // canonical forward body (spec with normalized id)
	status   string // "queued", "dispatched", "done", "failed"
	worker   string // current/last owner id
	errMsg   string
	err      error     // typed terminal error (e.g. *ErrRetriesExhausted)
	attempts int       // failed dispatch attempts so far
	deadline time.Time // zero: none; else submit time + DeadlineMS + grace
	cached   bool      // served from the content-addressed result cache
	result   []byte    // owning worker's terminal GET /runs/{id} bytes

	trace    *jobTrace    // live coordinator-side timeline (nil on replayed jobs)
	stages   StageSeconds // latency decomposition, final at terminal
	traceDoc []byte       // merged cluster-level Chrome trace (terminal jobs)
}

// Err returns the job's typed terminal error (nil while non-terminal or
// on success). Callers use errors.As to detect *ErrRetriesExhausted.
func (j *cjob) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ErrRetriesExhausted is the typed terminal error of a job that consumed
// its whole dispatch retry budget. Last carries the sanitized cause of
// the final attempt (url.Error wrappers are stripped so the text never
// embeds an ephemeral host:port).
type ErrRetriesExhausted struct {
	ID       string
	Attempts int
	Last     string
}

func (e *ErrRetriesExhausted) Error() string {
	return fmt.Sprintf("cluster: job %s retries exhausted after %d attempts: %s", e.ID, e.Attempts, e.Last)
}

// JobView is the JSON shape of a job in /jobs listings. Field order is
// fixed by the struct.
type JobView struct {
	ID       string       `json:"id"`
	Status   string       `json:"status"`
	Tenant   string       `json:"tenant,omitempty"`
	Priority string       `json:"priority"`
	Worker   string       `json:"worker,omitempty"`
	Error    string       `json:"error,omitempty"`
	Cached   bool         `json:"cached"`
	Attempts int          `json:"attempts"`
	Digest   string       `json:"digest"`
	Trace    string       `json:"trace"`
	Stages   StageSeconds `json:"stages"`
}

func (j *cjob) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	stages := j.stages
	if j.trace != nil && j.status != "done" && j.status != "failed" {
		// Live jobs report the decomposition accumulated so far (closed
		// spans only; E2E stays zero until the job is terminal).
		stages = j.trace.stageSeconds()
	}
	return JobView{
		ID: j.id, Status: j.status, Tenant: j.tenant, Priority: j.priority.String(),
		Worker: j.worker, Error: j.errMsg, Cached: j.cached, Attempts: j.attempts,
		Digest: fmt.Sprintf("%016x", j.digest),
		Trace:  fmt.Sprintf("%016x", trace.ID(j.id)),
		Stages: stages,
	}
}

// CoordinatorOptions configures a Coordinator. Zero values select the
// documented defaults.
type CoordinatorOptions struct {
	TTL          time.Duration // worker heartbeat TTL (default 10s)
	Replicas     int           // ring virtual nodes per worker (default DefaultRingReplicas)
	Quota        QuotaConfig   // default per-tenant quota
	Dispatchers  int           // concurrent dispatch loops (default 4)
	PollInterval time.Duration // worker run-status poll cadence (default 5ms)

	// RetryDelay is the deprecated fixed backoff; when set it seeds
	// BackoffBase. New code sets BackoffBase/BackoffCap directly.
	RetryDelay time.Duration

	MaxRetries    int           // per-job dispatch retry budget (default 64)
	BackoffBase   time.Duration // first-retry backoff (default 10ms)
	BackoffCap    time.Duration // backoff ceiling (default 2s)
	Seed          uint64        // seed for deterministic backoff jitter
	DeadlineGrace time.Duration // slack added to JobSpec.DeadlineMS (default 5s)
	Breaker       BreakerConfig // per-worker circuit breakers
	MaxJobs       int           // tracked-job bound; oldest terminal jobs evict (default 16384)

	Journal *Journal        // crash-safety journal (nil: in-memory only)
	Replay  []JournalRecord // records OpenJournal read, replayed at startup

	// Log receives the coordinator's structured job lifecycle events
	// (job.submit / job.dispatch / job.retry / job.terminal); nil is
	// silent. FlightW, when set alongside Log, attaches a flight recorder
	// to the log and writes an automatic dump there whenever a job
	// exhausts its retry budget.
	Log     *eventlog.Logger
	FlightW io.Writer

	Client *http.Client // control-plane client (default: 30s timeout)
	Now    func() time.Time
}

// Coordinator shards jobs across registered wavepimd workers.
type Coordinator struct {
	reg      *Registry
	adm      *Admission
	breakers *Breakers
	metrics  *obs.Registry
	client   *http.Client
	journal  *Journal
	log      *eventlog.Logger
	flight   *eventlog.FlightRecorder
	flightW  io.Writer
	flightMu sync.Mutex // serializes flight-dump writes
	now      func() time.Time

	poll          time.Duration
	backoffBase   time.Duration
	backoffCap    time.Duration
	maxRetries    int
	seed          uint64
	deadlineGrace time.Duration
	maxJobs       int

	mu       sync.Mutex
	jobs     map[string]*cjob
	order    []string
	seq      int
	byDigest map[uint64]*cjob // digest -> a done job (content-addressed result cache)
	replay   ReplayStats

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator builds the coordinator, replays the journal (when one
// is configured), and starts its dispatchers.
func NewCoordinator(o CoordinatorOptions) *Coordinator {
	if o.Dispatchers <= 0 {
		o.Dispatchers = 4
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 5 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		if o.RetryDelay > 0 {
			o.BackoffBase = o.RetryDelay
		} else {
			o.BackoffBase = 10 * time.Millisecond
		}
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 64
	}
	if o.DeadlineGrace <= 0 {
		o.DeadlineGrace = 5 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		reg:           NewRegistry(o.TTL, o.Replicas, o.Now),
		adm:           NewAdmission(o.Quota),
		breakers:      NewBreakers(o.Breaker, o.Now),
		metrics:       obs.NewRegistry(),
		client:        o.Client,
		journal:       o.Journal,
		log:           o.Log,
		flightW:       o.FlightW,
		now:           o.Now,
		poll:          o.PollInterval,
		backoffBase:   o.BackoffBase,
		backoffCap:    o.BackoffCap,
		maxRetries:    o.MaxRetries,
		seed:          o.Seed,
		deadlineGrace: o.DeadlineGrace,
		maxJobs:       o.MaxJobs,
		jobs:          map[string]*cjob{},
		byDigest:      map[uint64]*cjob{},
		ctx:           ctx,
		cancel:        cancel,
	}
	for _, st := range []string{"done", "failed", "rejected", "cached"} {
		c.metrics.CounterVec("wavepimctl.jobs", "status").With(st)
	}
	c.metrics.Counter("wavepimctl.dispatch_retries")
	c.metrics.Counter("wavepimctl.breaker_rejections")
	c.metrics.Counter("wavepimctl.jobs_evicted")
	c.metrics.Histogram("wavepimctl.retry_backoff_seconds")
	c.metrics.Gauge("wavepimctl.journal_records")
	c.metrics.Gauge("wavepimctl.workers")
	// Pre-register the backpressure gauges and the latency-decomposition
	// histogram children for every (priority, outcome) pair, so a scrape
	// of a fresh coordinator already exposes the families — and two
	// coordinators that ran different job mixes still expose identical
	// family/child sets, keeping expositions byte-comparable.
	for p := Priority(0); p < numPriorities; p++ {
		c.metrics.GaugeVec("wavepimctl.queue_depth", "priority").With(p.String())
		c.metrics.GaugeVec("wavepimctl.queue_age_seconds", "priority").With(p.String())
		for _, outcome := range []string{"cached", "done", "failed"} {
			for _, fam := range stageFamilies {
				c.metrics.HistogramVec(fam, "priority", "outcome").With(p.String(), outcome)
			}
		}
	}
	if o.Log != nil && o.FlightW != nil {
		c.flight = eventlog.NewFlightRecorder(nil, 256, 0)
		o.Log.SetRecorder(c.flight)
	}
	if len(o.Replay) > 0 {
		c.replayJournal(o.Replay)
	}
	for i := 0; i < o.Dispatchers; i++ {
		c.wg.Add(1)
		go c.dispatchLoop()
	}
	return c
}

// Registry exposes cluster membership (the HTTP layer and tests use it).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Admission exposes the quota layer for per-tenant overrides.
func (c *Coordinator) Admission() *Admission { return c.adm }

// Breakers exposes the per-worker circuit breakers.
func (c *Coordinator) Breakers() *Breakers { return c.breakers }

// Replay reports what the startup journal replay did.
func (c *Coordinator) Replay() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay
}

// Close stops accepting jobs and halts the dispatchers. In-flight
// dispatches are abandoned (their workers finish the runs; the runs stay
// queryable on the workers, and a journaled coordinator re-polls them on
// restart). The journal itself stays open — its owner closes it.
func (c *Coordinator) Close() {
	c.adm.Close()
	c.cancel()
	c.wg.Wait()
}

// deadlineFor computes a job's coordinator-side deadline from its spec:
// the worker enforces DeadlineMS on the run itself, and the coordinator
// allows that long plus DeadlineGrace for queueing, transport, and
// retries before it stops re-dispatching.
func (c *Coordinator) deadlineFor(spec JobSpec) time.Time {
	if spec.DeadlineMS <= 0 {
		return time.Time{}
	}
	return c.now().Add(time.Duration(spec.DeadlineMS)*time.Millisecond + c.deadlineGrace)
}

// expired reports whether a job's deadline passed.
func (c *Coordinator) expired(j *cjob) bool {
	j.mu.Lock()
	d := j.deadline
	j.mu.Unlock()
	return !d.IsZero() && c.now().After(d)
}

// journalAppend writes one journal record (no-op without a journal).
func (c *Coordinator) journalAppend(rec JournalRecord) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Append(rec)
}

// Submit admits a spec. The returned job is terminal immediately when
// the submission is a duplicate (same id) or content-identical to a
// completed job (same digest — served from cache without touching a
// worker). The bool reports whether the job already existed.
func (c *Coordinator) Submit(spec JobSpec) (*cjob, bool, error) {
	submitAt := c.now()
	id := spec.ID
	if id == "" {
		c.mu.Lock()
		c.seq++
		id = fmt.Sprintf("j%04d", c.seq)
		c.mu.Unlock()
	} else {
		var err error
		if id, err = NormalizeJobID(id); err != nil {
			return nil, false, err
		}
	}
	prio, err := ParsePriority(spec.Priority)
	if err != nil {
		return nil, false, err
	}
	spec.ID = id
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	if existing, ok := c.jobs[id]; ok {
		c.mu.Unlock()
		return existing, true, nil
	}
	j := &cjob{
		id: id, tenant: spec.Tenant, priority: prio,
		digest: spec.Digest(), body: body, status: "queued",
		deadline: c.deadlineFor(spec),
		trace:    newJobTrace(id, submitAt),
	}
	if done, ok := c.byDigest[j.digest]; ok {
		// Content-identical to a completed job: serve its report without
		// dispatching. The cached bytes are the equivalent run's report.
		done.mu.Lock()
		j.status, j.result, j.worker = done.status, done.result, done.worker
		j.errMsg = done.errMsg
		done.mu.Unlock()
		j.cached = true
		c.jobs[id] = j
		c.order = append(c.order, id)
		c.evictLocked(id)
		c.mu.Unlock()
		c.metrics.CounterVec("wavepimctl.jobs", "status").With("cached").Inc()
		// A cached job's whole life is its admission: record it, close the
		// timeline, and serve a coordinator-only merged trace.
		j.mu.Lock()
		j.trace.record(trace.StageAdmission, submitAt, c.now(), "cache-hit")
		j.trace.finalize(c.now(), "cached")
		j.stages = j.trace.stageSeconds()
		j.traceDoc = j.trace.merged("", nil)
		stages, doc := j.stages, j.traceDoc
		rec := JournalRecord{T: JournalTerminal, ID: id, Status: j.status,
			Error: j.errMsg, Cached: true, Result: j.result,
			Stages: &stages, Trace: doc, TraceDigest: traceDigestHex(doc)}
		j.mu.Unlock()
		c.observeStages(prio.String(), "cached", stages)
		c.log.Info("job.submit", eventlog.Str("job", id), eventlog.Str("tenant", spec.Tenant),
			eventlog.Str("priority", prio.String()), eventlog.Str("trace", j.trace.ctx.Hex()),
			eventlog.Bool("cached", true))
		// Cached jobs journal a submit + terminal pair so a restart still
		// serves their reports.
		c.journalAppend(JournalRecord{T: JournalSubmit, ID: id, Spec: body})
		c.journalAppend(rec)
		return j, false, nil
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.evictLocked(id)
	c.mu.Unlock()

	// The admission span and the queue wait open before the job becomes
	// claimable — once adm.Submit returns, a dispatcher may already be
	// closing the queue span on another goroutine.
	j.mu.Lock()
	j.trace.record(trace.StageAdmission, submitAt, c.now(), prio.String())
	j.trace.openQueue(c.now(), prio.String())
	j.mu.Unlock()

	if err := c.adm.Submit(&QueuedJob{ID: id, Tenant: spec.Tenant, Priority: prio,
		Enqueued: c.now(), Payload: j}); err != nil {
		c.mu.Lock()
		delete(c.jobs, id)
		if n := len(c.order); n > 0 && c.order[n-1] == id {
			c.order = c.order[:n-1]
		}
		c.mu.Unlock()
		c.metrics.CounterVec("wavepimctl.jobs", "status").With("rejected").Inc()
		return nil, false, err
	}
	// The durability point: the 202 must not leave before the submit
	// record is fsynced. A journal failure surfaces as a submission error
	// (the job may still run — workers are idempotent — but the client is
	// told to retry, and the retry under the same id is safe).
	if err := c.journalAppend(JournalRecord{T: JournalSubmit, ID: id, Spec: body}); err != nil {
		return nil, false, fmt.Errorf("cluster: journal submit: %w", err)
	}
	c.log.Info("job.submit", eventlog.Str("job", id), eventlog.Str("tenant", spec.Tenant),
		eventlog.Str("priority", prio.String()), eventlog.Str("trace", j.trace.ctx.Hex()),
		eventlog.Bool("cached", false))
	return j, false, nil
}

// evictLocked enforces the tracked-job bound by evicting the oldest
// terminal jobs (and their content-cache entries). Active jobs are never
// evicted, and neither is keep (the job just inserted). Caller holds
// c.mu.
func (c *Coordinator) evictLocked(keep string) {
	for len(c.jobs) > c.maxJobs {
		idx := -1
		for i, id := range c.order {
			if id == keep {
				continue
			}
			j := c.jobs[id]
			j.mu.Lock()
			terminal := j.status == "done" || j.status == "failed"
			j.mu.Unlock()
			if terminal {
				idx = i
				break
			}
		}
		if idx < 0 {
			return // nothing evictable; tolerate the overshoot
		}
		id := c.order[idx]
		j := c.jobs[id]
		delete(c.jobs, id)
		c.order = append(c.order[:idx], c.order[idx+1:]...)
		if d, ok := c.byDigest[j.digest]; ok && d == j {
			delete(c.byDigest, j.digest)
		}
		c.metrics.Counter("wavepimctl.jobs_evicted").Inc()
	}
}

// replayJournal rebuilds the job table from the journal's records:
// terminal jobs are restored verbatim (reports stay queryable), the rest
// are re-admitted for dispatch under their idempotent ids. Runs inside
// NewCoordinator, before any dispatcher starts.
func (c *Coordinator) replayJournal(recs []JournalRecord) {
	type rstate struct {
		spec     json.RawMessage
		worker   string
		terminal bool
		status   string
		errMsg   string
		cached   bool
		result   []byte
		stages   *StageSeconds
		trace    json.RawMessage
		traceDig string
	}
	byID := map[string]*rstate{}
	var order []string
	c.replay.Records = len(recs)
	for _, rec := range recs {
		switch rec.T {
		case JournalSubmit:
			if _, dup := byID[rec.ID]; dup {
				c.replay.Dropped++
				continue
			}
			byID[rec.ID] = &rstate{spec: rec.Spec}
			order = append(order, rec.ID)
		case JournalDispatch:
			if st, ok := byID[rec.ID]; ok {
				st.worker = rec.Worker
			}
		case JournalTerminal:
			if st, ok := byID[rec.ID]; ok {
				st.terminal = true
				st.status, st.errMsg, st.cached, st.result = rec.Status, rec.Error, rec.Cached, rec.Result
				st.stages, st.trace, st.traceDig = rec.Stages, rec.Trace, rec.TraceDigest
			}
		}
	}
	for _, id := range order {
		st := byID[id]
		var spec JobSpec
		if err := json.Unmarshal(st.spec, &spec); err != nil {
			c.replay.Dropped++
			continue
		}
		prio, err := ParsePriority(spec.Priority)
		if err != nil {
			c.replay.Dropped++
			continue
		}
		c.bumpSeq(id)
		j := &cjob{
			id: id, tenant: spec.Tenant, priority: prio,
			digest: spec.Digest(), body: st.spec,
			deadline: c.deadlineFor(spec), worker: st.worker,
		}
		if st.terminal {
			j.status, j.errMsg, j.cached, j.result = st.status, st.errMsg, st.cached, st.result
			if st.stages != nil {
				j.stages = *st.stages
			}
			// The journal stores the merged trace compacted (RawMessage
			// round-trips through json.Marshal compact it); re-indenting
			// reproduces the served bytes, and the recorded digest proves
			// it before the trace becomes queryable again.
			j.traceDoc = restoreTraceDoc(st.trace, st.traceDig)
			c.jobs[id] = j
			c.order = append(c.order, id)
			if j.status == "done" && j.result != nil && !j.cached {
				if _, ok := c.byDigest[j.digest]; !ok {
					c.byDigest[j.digest] = j
				}
			}
			c.replay.Restored++
			continue
		}
		// Queued or mid-flight at crash time: re-admit. The idempotent id
		// means a run the old incarnation already started is re-polled, not
		// re-executed. The new incarnation starts a fresh timeline — the
		// pre-crash spans died with the process; only terminal jobs replay
		// their recorded traces.
		j.status = "queued"
		j.trace = newJobTrace(id, c.now())
		j.trace.record(trace.StageAdmission, c.now(), c.now(), "replay")
		j.trace.openQueue(c.now(), prio.String())
		c.jobs[id] = j
		c.order = append(c.order, id)
		c.adm.Restore(&QueuedJob{ID: id, Tenant: spec.Tenant, Priority: prio,
			Enqueued: c.now(), Payload: j})
		c.replay.Requeued++
	}
	c.evictLocked("")
}

// bumpSeq advances the auto-id sequence past a replayed "jNNNN" id so
// new auto-named jobs cannot collide with replayed ones.
func (c *Coordinator) bumpSeq(id string) {
	if !strings.HasPrefix(id, "j") {
		return
	}
	if n, err := strconv.Atoi(id[1:]); err == nil && n > c.seq {
		c.seq = n
	}
}

// Job looks up a tracked job.
func (c *Coordinator) Job(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs lists tracked jobs in submission order.
func (c *Coordinator) Jobs() []JobView {
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	jobs := make([]*cjob, len(ids))
	for i, id := range ids {
		jobs[i] = c.jobs[id]
	}
	c.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

func (c *Coordinator) dispatchLoop() {
	defer c.wg.Done()
	for {
		qj, ok := c.adm.Next(c.ctx)
		if !ok {
			return
		}
		c.dispatch(qj)
	}
}

// sleep waits out a backoff; returns false when the coordinator closed.
func (c *Coordinator) sleep(d time.Duration) bool {
	select {
	case <-c.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// RetryBackoff is the capped-exponential backoff with deterministic
// seeded jitter before retry attempt (1-based) of job id: the raw delay
// doubles from base up to cap, and the jitter scales it into
// [0.5, 1.0) of that value by a pure hash of (seed, id, attempt) — two
// coordinators with the same seed back off identically, which is what
// keeps seeded chaos schedules reproducible.
func RetryBackoff(seed uint64, id string, attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := mix64(seed ^ RingKey(id) ^ mix64(uint64(attempt)))
	frac := 0.5 + float64(h>>11)/(1<<53)*0.5
	return time.Duration(float64(d) * frac)
}

// sanitizeCause strips url.Error wrappers (whose text embeds the target
// URL, ephemeral port included) so retry causes — which end up in the
// job table — stay deterministic across runs.
func sanitizeCause(err error) error {
	var ue *url.Error
	if errors.As(err, &ue) && ue.Err != nil {
		return ue.Err
	}
	return err
}

// dispatch forwards one claimed job to its ring owner and follows it to
// a terminal state. Transport failures and backpressure consume retry
// budget; breaker-open and no-owner stalls do not (no request was made).
func (c *Coordinator) dispatch(qj *QueuedJob) {
	j := qj.Payload.(*cjob)
	j.mu.Lock()
	j.trace.closeQueue(c.now())
	j.mu.Unlock()
	if c.expired(j) {
		c.finishJob(qj, j, "failed",
			fmt.Errorf("cluster: job %s deadline exceeded before dispatch", j.id), nil, "", nil)
		return
	}
	owner, ok := c.reg.OwnerOf(j.id)
	if !ok {
		// No live workers; hold the job until one registers. The stall
		// costs no retry budget — no request was made.
		c.stall(qj, j, "no-owner")
		return
	}
	if !c.breakers.Allow(owner.ID) {
		// The owner's circuit is open: don't burn budget on a worker known
		// to be failing; wait out a base backoff and try again (the ring
		// may route elsewhere, or the breaker may half-open).
		c.metrics.Counter("wavepimctl.breaker_rejections").Inc()
		c.stall(qj, j, "breaker-open:"+owner.ID)
		return
	}
	j.mu.Lock()
	j.status = "dispatched"
	j.worker = owner.ID
	body := j.body
	hdr := j.trace.ctx.String()
	attempt := j.attempts
	j.mu.Unlock()

	postAt := c.now()
	code, respBody, err := c.do("POST", owner.URL+"/v1/runs", body, trace.Header, hdr)
	if err != nil {
		c.breakers.Failure(owner.ID)
		c.reg.MarkDead(owner.ID)
		c.attemptSpan(j, postAt, "retry: "+sanitizeCause(err).Error())
		c.retryJob(qj, j, err)
		return
	}
	switch {
	case code == http.StatusOK || code == http.StatusAccepted:
		// accepted (or already known from an earlier attempt)
		c.breakers.Success(owner.ID)
		c.attemptSpan(j, postAt, "accepted:"+owner.ID)
		j.mu.Lock()
		j.trace.openExec(c.now(), "worker:"+owner.ID)
		j.mu.Unlock()
	case code == http.StatusServiceUnavailable:
		// Worker queue full, draining, or flapping: consume budget and
		// back off; the ring may route elsewhere by then.
		c.breakers.Failure(owner.ID)
		cause := fmt.Errorf("worker %s bounced job: 503", owner.ID)
		c.attemptSpan(j, postAt, "retry: "+cause.Error())
		c.retryJob(qj, j, cause)
		return
	default:
		c.attemptSpan(j, postAt, fmt.Sprintf("rejected: %d", code))
		c.finishJob(qj, j, "failed", fmt.Errorf("worker %s rejected job: %d %s",
			owner.ID, code, strings.TrimSpace(string(respBody))), nil, "", nil)
		return
	}
	c.journalAppend(JournalRecord{T: JournalDispatch, ID: j.id, Worker: owner.ID})
	c.log.Info("job.dispatch", eventlog.Str("job", j.id), eventlog.Str("worker", owner.ID),
		eventlog.Int("attempt", attempt))

	for {
		if c.expired(j) {
			c.finishJob(qj, j, "failed",
				fmt.Errorf("cluster: job %s deadline exceeded waiting on worker %s", j.id, owner.ID), nil, "", nil)
			return
		}
		code, respBody, err := c.do("GET", owner.URL+"/v1/runs/"+j.id, nil)
		if err != nil {
			c.breakers.Failure(owner.ID)
			c.reg.MarkDead(owner.ID)
			c.closeExec(j, "retry: "+sanitizeCause(err).Error())
			c.retryJob(qj, j, err)
			return
		}
		switch {
		case code == http.StatusOK:
			// fall through to decode
		case code == http.StatusNotFound:
			// The worker restarted and lost the run: re-dispatch under the
			// same idempotent id.
			c.closeExec(j, "retry: worker lost run")
			c.retryJob(qj, j, fmt.Errorf("worker %s lost run", owner.ID))
			return
		default:
			c.finishJob(qj, j, "failed",
				fmt.Errorf("worker %s run status: %d", owner.ID, code), nil, "", nil)
			return
		}
		var v struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(respBody, &v); err != nil {
			c.finishJob(qj, j, "failed", fmt.Errorf("worker %s run view: %v", owner.ID, err), nil, "", nil)
			return
		}
		if v.Status == "done" || v.Status == "failed" {
			var cause error
			if v.Error != "" {
				cause = errors.New(v.Error)
			}
			c.closeExec(j, "")
			workerTrace := c.fetchWorkerTrace(j, owner)
			c.finishJob(qj, j, v.Status, cause, respBody, owner.ID, workerTrace)
			return
		}
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(c.poll):
		}
	}
}

// stall records a budget-free hold (no owner / breaker open) and puts
// the job back in its queue.
func (c *Coordinator) stall(qj *QueuedJob, j *cjob, annot string) {
	start := c.now()
	ok := c.sleep(c.backoffBase)
	j.mu.Lock()
	j.trace.record(trace.StageStall, start, c.now(), annot)
	if ok {
		j.trace.openQueue(c.now(), j.priority.String())
	}
	j.mu.Unlock()
	if ok {
		c.adm.Requeue(qj)
	}
}

// attemptSpan records one POST /v1/runs attempt on the job's timeline.
func (c *Coordinator) attemptSpan(j *cjob, start time.Time, annot string) {
	j.mu.Lock()
	j.trace.record(trace.StageDispatch, start, c.now(), annot)
	j.mu.Unlock()
}

// closeExec ends the job's open execution span (annot overrides the
// worker annotation when the execution ended in a retry, not a result).
func (c *Coordinator) closeExec(j *cjob, annot string) {
	j.mu.Lock()
	j.trace.closeExec(c.now(), annot)
	j.mu.Unlock()
}

// fetchWorkerTrace pulls the owning worker's Chrome trace for a run that
// just went terminal (the worker publishes it in the same critical
// section that flips the run status, so it is ready by now). The fetch
// itself is a "report" span; an unreachable worker or malformed document
// degrades to a coordinator-only merged trace rather than an error.
func (c *Coordinator) fetchWorkerTrace(j *cjob, owner Worker) []byte {
	start := c.now()
	code, body, err := c.do("GET", owner.URL+"/v1/runs/"+j.id+"/trace", nil)
	annot := "worker:" + owner.ID
	var workerTrace []byte
	if err == nil && code == http.StatusOK && trace.Valid(body) {
		workerTrace = body
	} else {
		annot += " (trace unavailable)"
	}
	j.mu.Lock()
	j.trace.record(trace.StageReport, start, c.now(), annot)
	j.mu.Unlock()
	return workerTrace
}

// retryJob charges one unit of the job's retry budget and requeues it
// after its deterministic backoff — or terminates it with
// *ErrRetriesExhausted once the budget is gone.
func (c *Coordinator) retryJob(qj *QueuedJob, j *cjob, cause error) {
	cause = sanitizeCause(cause)
	j.mu.Lock()
	j.attempts++
	attempts := j.attempts
	j.status = "queued"
	j.mu.Unlock()
	if attempts >= c.maxRetries {
		c.finishJob(qj, j, "failed",
			&ErrRetriesExhausted{ID: j.id, Attempts: attempts, Last: cause.Error()}, nil, "", nil)
		return
	}
	c.metrics.Counter("wavepimctl.dispatch_retries").Inc()
	d := RetryBackoff(c.seed, j.id, attempts, c.backoffBase, c.backoffCap)
	c.metrics.Histogram("wavepimctl.retry_backoff_seconds").Observe(d.Seconds())
	c.log.Warn("job.retry", eventlog.Str("job", j.id), eventlog.Int("attempt", attempts),
		eventlog.Str("cause", cause.Error()), eventlog.Int64("backoff_ms", d.Milliseconds()))
	start := c.now()
	ok := c.sleep(d)
	j.mu.Lock()
	j.trace.record(trace.StageBackoff, start, c.now(), fmt.Sprintf("attempt %d", attempts))
	if ok {
		j.trace.openQueue(c.now(), j.priority.String())
	}
	j.mu.Unlock()
	if ok {
		c.adm.Requeue(qj)
	}
	// Coordinator closed mid-backoff: the job stays non-terminal in
	// memory; a journaled coordinator re-admits it on restart.
}

// finishJob records a terminal state, closes and merges the job's
// timeline, feeds the content-addressed result cache and the latency
// histograms, journals the transition (trace included), and releases the
// tenant's active slot. workerID/workerTrace are set only on the
// dispatched-terminal path; every other terminal gets a
// coordinator-only merged trace.
func (c *Coordinator) finishJob(qj *QueuedJob, j *cjob, status string, cause error, result []byte, workerID string, workerTrace []byte) {
	errMsg := ""
	if cause != nil {
		errMsg = cause.Error()
	}
	// Canonicalize the report bytes: the journal stores them as a JSON
	// RawMessage, which compacts surrounding whitespace on re-marshal, so
	// trimming here keeps pre-crash and post-replay reads byte-identical.
	result = bytes.TrimSpace(result)
	if len(result) == 0 {
		result = nil
	}
	// Close and merge the timeline (the expensive part), then count and
	// log the transition, and only then publish it: a client that sees the
	// terminal status finds the job.terminal event logged. The journal
	// append (a group-commit fsync) comes after the publish, so it does
	// not delay the status a client sees.
	var stages StageSeconds
	var doc []byte
	j.mu.Lock()
	if j.trace != nil {
		j.trace.finalize(c.now(), status)
		stages = j.trace.stageSeconds()
		doc = j.trace.merged(workerID, workerTrace)
	}
	prio := j.priority.String()
	j.mu.Unlock()
	c.metrics.CounterVec("wavepimctl.jobs", "status").With(status).Inc()
	c.observeStages(prio, status, stages)
	lv := eventlog.Info
	if status == "failed" {
		lv = eventlog.Error
	}
	c.log.Log(lv, "job.terminal", eventlog.Str("job", j.id), eventlog.Str("status", status),
		eventlog.Str("error", errMsg))
	var exhausted *ErrRetriesExhausted
	if errors.As(cause, &exhausted) && c.flight != nil && c.flightW != nil {
		// A job that burned its whole retry budget is the cluster-level
		// unrecoverable failure: snapshot the coordinator's recent events
		// the way a worker snapshots an unhealable run.
		c.flightMu.Lock()
		c.flight.Dump("retries-exhausted", j.id).WriteJSON(c.flightW)
		c.flightMu.Unlock()
	}
	// Publish the terminal state and the content-cache entry in one
	// critical section: a client that sees "done" and at once resubmits
	// the same content must hit byDigest. c.mu before j.mu, the order
	// Submit and evictLocked use.
	c.mu.Lock()
	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.err = cause
	j.result = result
	if j.trace != nil {
		j.stages, j.traceDoc = stages, doc
	}
	j.mu.Unlock()
	if status == "done" && result != nil {
		if _, ok := c.byDigest[j.digest]; !ok {
			c.byDigest[j.digest] = j
		}
	}
	c.mu.Unlock()
	c.journalAppend(JournalRecord{T: JournalTerminal, ID: j.id, Status: status,
		Error: errMsg, Result: result,
		Stages: &stages, Trace: doc, TraceDigest: traceDigestHex(doc)})
	c.adm.Done(qj.Tenant)
}

// do runs one control-plane request and slurps the body. The body rides
// a bytes.Reader so net/http sets ContentLength and GetBody — retried
// and redirected POSTs replay the payload without an extra copy. hdr is
// optional key/value pairs of extra headers (the trace context rides
// here).
func (c *Coordinator) do(method, url string, body []byte, hdr ...string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
