// Package engine is the concurrent flow engine: a worker-pool job
// scheduler that executes FlowOptions-parameterized pipeline runs
// concurrently with context cancellation and per-job timeouts, panic
// containment (a crashing flow fails its job, not the process), a
// content-addressed result cache (SHA-256 of canonical circuit BLIF +
// normalized options) with LRU eviction, and singleflight deduplication of
// identical in-flight requests. It is the substrate under cmd/lilyd (the
// network-facing mapping service) and cmd/tables (suite fan-out).
package engine

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lily"
	"lily/internal/obs"
)

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("engine: closed")

// ErrQueueFull is returned by Submit in load-shed mode (Config.LoadShed)
// when the submit queue has no free slot. Callers should back off and
// retry; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("engine: queue full")

// RunFunc executes one resolved request. The default implementation runs
// the lily pipeline; tests inject fakes to exercise scheduling behavior.
type RunFunc func(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error)

// RemoteFunc consults the cluster tier for a job this node does not own.
// It is called by the singleflight leader after a local cache miss, with
// the job's digest (Job.Key) and its resolved circuit. Three outcomes:
//
//   - (out, nil): the request was served remotely — from the owner's
//     cache or by proxied compute. The engine caches it locally and
//     finishes the job without running the pipeline.
//   - (nil, nil): this node owns the digest (or chose not to go remote);
//     compute locally.
//   - (nil, err): the remote tier failed (owner down, shedding, slow).
//     The engine degrades to local compute — a broken cluster never
//     fails a job, it only costs the work.
//
// The hook is skipped for requests marked LocalOnly (proxied-in work).
type RemoteFunc func(ctx context.Context, digest string, c *lily.Circuit, req Request) (*Outcome, error)

// Config tunes an Engine.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is the submit-queue capacity; 0 means 4×Workers. Submit
	// blocks (honouring its ctx) when the queue is full.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; 0 means 128, negative
	// disables caching.
	CacheEntries int
	// DefaultTimeout bounds each job's run time unless the request
	// overrides it; 0 means no timeout.
	DefaultTimeout time.Duration
	// MaxRetainedJobs bounds how many terminal jobs the registry keeps
	// for later status/result fetches; the oldest-finished are evicted
	// first. 0 means DefaultMaxRetainedJobs, negative means unlimited.
	MaxRetainedJobs int
	// RetainFor additionally garbage-collects terminal jobs older than
	// this from the registry (a background goroutine stopped by
	// Shutdown); 0 disables age-based GC.
	RetainFor time.Duration
	// LoadShed makes Submit non-blocking: when the queue is full it
	// returns ErrQueueFull immediately instead of waiting for a slot, so
	// a service front end can shed load (429) rather than hang
	// connections.
	LoadShed bool
	// Metrics is the registry the engine registers its instruments on;
	// nil means the engine creates a private one (reachable via
	// Registry). Sharing a registry across engines is allowed —
	// registration is idempotent.
	Metrics *obs.Registry
	// Trace records a phase-span tree per job (served by lilyd at
	// /v1/jobs/{id}/trace, retained and evicted with the job). Off by
	// default: library users keep the zero-allocation no-op path.
	Trace bool
	// OnTerminal, when set, is invoked once per job as it reaches a
	// terminal state via a worker (the lilyd job-log middleware). It
	// runs on the worker goroutine; keep it fast.
	OnTerminal func(Status)
	// Parallelism is the intra-job worker default applied to requests
	// that leave FlowOptions.Parallelism unset (0). The knob is pure
	// throughput — results are bit-identical at every setting and the
	// request digest excludes it — so the server can raise it fleet-wide
	// without invalidating caches. 0 leaves requests untouched
	// (sequential placement).
	Parallelism int
	// Run overrides the job executor (tests); nil runs the lily pipeline.
	Run RunFunc
	// Remote, when set, is consulted before local compute for jobs whose
	// digest another cluster node owns (see RemoteFunc). cmd/lilyd wires
	// internal/cluster's Remote here; nil keeps the engine single-node.
	Remote RemoteFunc
}

// Stats is a point-in-time snapshot of engine counters. QueueLen is the
// current submit-queue occupancy; QueueCap its capacity (the former
// "queue_depth" field conflated the two).
type Stats struct {
	Workers      int           `json:"workers"`
	QueueLen     int           `json:"queue_len"`
	QueueCap     int           `json:"queue_cap"`
	Running      int           `json:"running"`
	Jobs         int           `json:"jobs"`
	Submitted    uint64        `json:"submitted"`
	Completed    uint64        `json:"completed"`
	Failed       uint64        `json:"failed"`
	Canceled     uint64        `json:"canceled"`
	Shed         uint64        `json:"shed"`
	Evicted      uint64        `json:"evicted"`
	CacheHits    uint64        `json:"cache_hits"`
	CacheMisses  uint64        `json:"cache_misses"`
	RemoteHits   uint64        `json:"cache_remote_hits"`
	Deduped      uint64        `json:"deduped"`
	DedupReruns  uint64        `json:"dedup_reruns"`
	Panics       uint64        `json:"panics"`
	CacheEntries int           `json:"cache_entries"`
	QueueWait    time.Duration `json:"queue_wait_total_ns"`
	RunTime      time.Duration `json:"run_time_total_ns"`
}

// flight tracks one in-flight execution for singleflight deduplication.
type flight struct {
	done chan struct{}
	out  *Outcome
	err  error
}

// Engine is a concurrent, cancellable, cache-backed flow scheduler.
type Engine struct {
	cfg   Config
	run   RunFunc
	queue chan *Job
	cache *lruCache

	reg     *obs.Registry
	metrics *engineMetrics
	flow    *obs.FlowMetrics

	mu       sync.Mutex
	byID     map[string]*Job
	retired  *list.List // terminal jobs in finish order (retainedEntry)
	inflight map[string]*flight
	closed   bool
	running  int
	stats    Stats

	closing  chan struct{} // closed when Shutdown begins
	stop     chan struct{} // closed to terminate idle workers
	stopOnce sync.Once
	workerWG sync.WaitGroup // live workers
	jobWG    sync.WaitGroup // unfinished jobs
	seq      atomic.Uint64
}

// New starts an engine with cfg.Workers goroutines ready to execute jobs.
// Call Shutdown to drain and stop it.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	cacheCap := cfg.CacheEntries
	if cacheCap == 0 {
		cacheCap = 128
	}
	if cfg.MaxRetainedJobs == 0 {
		cfg.MaxRetainedJobs = DefaultMaxRetainedJobs
	}
	e := &Engine{
		cfg:      cfg,
		run:      cfg.Run,
		queue:    make(chan *Job, cfg.QueueDepth),
		cache:    newLRU(cacheCap),
		byID:     make(map[string]*Job),
		retired:  list.New(),
		inflight: make(map[string]*flight),
		closing:  make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if e.run == nil {
		e.run = runPipeline
	}
	e.reg = cfg.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.metrics = e.registerMetrics(e.reg)
	e.flow = obs.RegisterFlowMetrics(e.reg)
	e.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	if cfg.RetainFor > 0 {
		e.workerWG.Add(1)
		go e.gcLoop(gcInterval(cfg.RetainFor))
	}
	return e
}

// runPipeline is the production executor: the full lily flow, optionally
// rendering the layout SVG or capturing the mapped BLIF byte stream.
func runPipeline(ctx context.Context, c *lily.Circuit, req Request) (*Outcome, error) {
	if req.RenderSVG {
		var buf bytes.Buffer
		res, err := lily.RenderLayoutSVGContext(ctx, c, req.Options, &buf, lily.SVGOptions{DrawNets: true})
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: res, SVG: buf.Bytes()}, nil
	}
	if req.EmitBLIF {
		var buf bytes.Buffer
		res, err := lily.WriteMappedBLIFContext(ctx, c, req.Options, &buf)
		if err != nil {
			return nil, err
		}
		return &Outcome{Result: res, MappedBLIF: buf.Bytes()}, nil
	}
	res, err := lily.RunFlowContext(ctx, c, req.Options)
	if err != nil {
		return nil, err
	}
	return &Outcome{Result: res}, nil
}

// resolveCircuit materializes the request's circuit and its canonical BLIF
// serialization (the content-addressed half of the cache key).
func resolveCircuit(req Request) (*lily.Circuit, []byte, error) {
	set := 0
	if req.Benchmark != "" {
		set++
	}
	if len(req.BLIF) > 0 {
		set++
	}
	if req.Circuit != nil {
		set++
	}
	if set != 1 {
		return nil, nil, fmt.Errorf("engine: request must set exactly one of Benchmark, BLIF, or Circuit (got %d)", set)
	}
	var c *lily.Circuit
	var err error
	switch {
	case req.Benchmark != "":
		c, err = lily.GenerateBenchmark(req.Benchmark)
	case len(req.BLIF) > 0:
		c, err = lily.LoadBLIF(bytes.NewReader(req.BLIF))
	default:
		c = req.Circuit.Clone()
	}
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := c.WriteBLIF(&buf); err != nil {
		return nil, nil, err
	}
	return c, buf.Bytes(), nil
}

// Submit validates and enqueues a job. The returned Job is already
// registered for lookup; ctx governs both the enqueue wait and, as the
// parent of the job's own context, the run itself. In load-shed mode
// (Config.LoadShed) a full queue fails fast with ErrQueueFull instead of
// blocking.
func (e *Engine) Submit(ctx context.Context, req Request) (*Job, error) {
	if req.Timeout < 0 {
		// A negative duration would silently disable the timeout in
		// runGuarded; reject it at the boundary instead.
		return nil, fmt.Errorf("engine: negative timeout %v", req.Timeout)
	}
	if req.RenderSVG && req.EmitBLIF {
		// Each artifact flag selects a different pipeline entry point;
		// honouring both would mean running the flow twice per job.
		return nil, errors.New("engine: RenderSVG and EmitBLIF are mutually exclusive")
	}
	circ, blif, err := resolveCircuit(req)
	if err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	seq := e.seq.Add(1)
	j := &Job{
		id:        fmt.Sprintf("job-%06d", seq),
		seq:       seq,
		key:       requestKey(blif, req.Options, req.RenderSVG, req.EmitBLIF),
		req:       req,
		circuit:   circ,
		ctx:       jctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if e.cfg.Trace {
		j.tracer = obs.NewTracer()
		// Span ends feed the per-phase duration histogram; the filter in
		// ObservePhase keeps the label set fixed.
		j.tracer.OnSpanEnd = e.flow.ObservePhase
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	e.jobWG.Add(1)
	e.byID[j.id] = j
	e.stats.Submitted++
	e.metrics.submitted.Inc()
	e.metrics.jobsByTarget.With(req.Options.Target.String()).Inc()
	e.mu.Unlock()

	if e.cfg.LoadShed {
		select {
		case e.queue <- j:
			return j, nil
		default:
			e.abandon(j, ErrQueueFull)
			return nil, ErrQueueFull
		}
	}
	select {
	case e.queue <- j:
		return j, nil
	case <-ctx.Done():
		e.abandon(j, ctx.Err())
		return nil, ctx.Err()
	case <-e.closing:
		e.abandon(j, ErrClosed)
		return nil, ErrClosed
	}
}

// abandon finalizes a job that never reached the queue: Submit is
// returning an error instead of the handle, so the ID must not linger in
// the registry. The job is finished as canceled, counted (shed jobs on
// their own counter), and dropped.
func (e *Engine) abandon(j *Job, err error) {
	j.finish(StateCanceled, nil, err)
	e.mu.Lock()
	e.countTerminalLocked(StateCanceled)
	if errors.Is(err, ErrQueueFull) {
		e.stats.Shed++
		e.metrics.shed.Inc()
	}
	delete(e.byID, j.id)
	e.mu.Unlock()
	e.jobWG.Done()
}

// Registry returns the metrics registry the engine (and the flows it
// runs) report into; lilyd serves it at /metrics.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Run is the synchronous convenience wrapper: submit and wait.
func (e *Engine) Run(ctx context.Context, req Request) (*Outcome, error) {
	j, err := e.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

// Job returns a submitted job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.byID[id]
	return j, ok
}

// Jobs snapshots the status of every known job, ordered by submit
// sequence. (Sorting by the ID string would misorder once the zero-padded
// counter overflows six digits: "job-1000000" < "job-999999" lexically.)
func (e *Engine) Jobs() []Status {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.byID))
	for _, j := range e.byID {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := e.stats
	s.Running = e.running
	s.Jobs = len(e.byID)
	e.mu.Unlock()
	s.Workers = e.cfg.Workers
	s.QueueLen = len(e.queue)
	s.QueueCap = cap(e.queue)
	s.CacheEntries = e.cache.len()
	return s
}

// Shutdown stops accepting jobs and drains the in-flight ones. If ctx
// expires first, all unfinished jobs are cancelled; Shutdown still waits
// for the workers to observe the cancellation before returning ctx's error.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.closing)
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	//lint:stopped joined below: both select arms wait on <-drained, and jobWG.Wait returns once cancelAll unblocks the workers
	go func() {
		e.jobWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		e.cancelAll()
		<-drained // workers finish cancelled jobs promptly
	}
	e.stopOnce.Do(func() { close(e.stop) })
	e.workerWG.Wait()
	return err
}

// cancelAll cancels every non-terminal job.
func (e *Engine) cancelAll() {
	e.mu.Lock()
	jobs := make([]*Job, 0, len(e.byID))
	for _, j := range e.byID {
		jobs = append(jobs, j)
	}
	e.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

func (e *Engine) worker() {
	defer e.workerWG.Done()
	for {
		select {
		case j := <-e.queue:
			e.execute(j)
		case <-e.stop:
			// Drain any stragglers left behind by an expired Shutdown.
			select {
			case j := <-e.queue:
				e.execute(j)
			default:
				return
			}
		}
	}
}

// execute runs one job to a terminal state: cancellation check, cache
// lookup, singleflight deduplication, then the guarded pipeline run.
func (e *Engine) execute(j *Job) {
	defer e.jobWG.Done()
	queueWait := j.start(time.Now())
	e.metrics.queueWait.Observe(queueWait.Seconds())
	e.mu.Lock()
	e.running++
	e.stats.QueueWait += queueWait
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running--
		e.mu.Unlock()
	}()

	if err := j.ctx.Err(); err != nil {
		e.finishJob(j, StateCanceled, nil, err)
		return
	}

	if out, ok := e.cache.get(j.key); ok {
		j.markCacheHit()
		e.markTrivialTrace(j, "cache_hit")
		e.mu.Lock()
		e.stats.CacheHits++
		e.mu.Unlock()
		e.metrics.cacheHits.Inc()
		e.finishJob(j, StateDone, out, nil)
		return
	}
	e.mu.Lock()
	e.stats.CacheMisses++
	e.mu.Unlock()
	e.metrics.cacheMisses.Inc()

	// Singleflight. A follower piggybacks on the in-flight leader for its
	// key — but a leader that dies of its *own* cancellation or timeout
	// produced a verdict about that job's deadline, not about this
	// request. A follower whose context is still live must not inherit
	// StateCanceled; it loops back and either joins a newer leader or
	// takes over and executes itself.
	deduped := false
	for {
		if deduped {
			// A concurrent leader may have completed and populated the
			// cache between rounds.
			if out, ok := e.cache.get(j.key); ok {
				j.markCacheHit()
				e.mu.Lock()
				e.stats.CacheHits++
				e.mu.Unlock()
				e.finishJob(j, StateDone, out, nil)
				return
			}
		}
		e.mu.Lock()
		f, ok := e.inflight[j.key]
		if ok {
			if !deduped {
				deduped = true
				e.stats.Deduped++
				e.metrics.deduped.Inc()
			}
			e.mu.Unlock()
			j.markDeduped()
			select {
			case <-f.done:
				if f.err == nil {
					e.markTrivialTrace(j, "deduped")
					e.finishJob(j, StateDone, f.out, nil)
					return
				}
				if classify(f.err) == StateCanceled && j.ctx.Err() == nil {
					continue // leader-only cancellation: re-execute
				}
				e.finishJob(j, classify(f.err), nil, f.err)
				return
			case <-j.ctx.Done():
				e.finishJob(j, StateCanceled, nil, j.ctx.Err())
				return
			}
		}
		f = &flight{done: make(chan struct{})}
		e.inflight[j.key] = f
		if deduped {
			e.stats.DedupReruns++
			e.metrics.dedupReruns.Inc()
		}
		e.mu.Unlock()

		out, err := e.runRemoteOrLocal(j)
		f.out, f.err = out, err
		e.mu.Lock()
		delete(e.inflight, j.key)
		e.mu.Unlock()
		close(f.done)

		if err != nil {
			e.finishJob(j, classify(err), nil, err)
			return
		}
		e.cache.add(j.key, out)
		e.finishJob(j, StateDone, out, nil)
		return
	}
}

// classify maps an execution error to a terminal state.
func classify(err error) State {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return StateCanceled
	}
	return StateFailed
}

// markTrivialTrace records a one-span trace for a job that never ran the
// pipeline (cache hit or dedup follower), so its /trace endpoint still
// explains where the result came from.
func (e *Engine) markTrivialTrace(j *Job, how string) {
	if j.tracer == nil {
		return
	}
	_, root := j.tracer.StartRoot(context.Background(), "job")
	root.SetStr("id", j.id)
	root.SetStr("source", how)
	root.End()
}

// runRemoteOrLocal is the singleflight leader's executor: consult the
// cluster tier first (owner's cache or proxied compute), fall through to
// the guarded local pipeline. Remote failures are deliberately invisible
// to the job — the cluster only ever adds capacity, never a failure mode;
// determinism makes the substitution safe (same digest, same bytes).
func (e *Engine) runRemoteOrLocal(j *Job) (*Outcome, error) {
	if e.cfg.Remote != nil && !j.req.LocalOnly {
		if out, err := e.cfg.Remote(j.ctx, j.key, j.circuit, j.req); err == nil && out != nil {
			j.markRemoteHit()
			e.markTrivialTrace(j, "remote")
			e.mu.Lock()
			e.stats.RemoteHits++
			e.mu.Unlock()
			e.metrics.remoteHits.Inc()
			return out, nil
		}
	}
	return e.runGuarded(j)
}

// runGuarded executes the job body under its timeout with panic recovery:
// a panicking flow fails its own job and increments the panic counter, but
// the worker and the process survive. The context handed to the pipeline
// carries the engine's flow metrics and, when tracing is on, the job's
// tracer with a root "job" span.
func (e *Engine) runGuarded(j *Job) (out *Outcome, err error) {
	ctx := obs.ContextWithFlowMetrics(j.ctx, e.flow)
	timeout := j.req.Timeout
	if timeout == 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var root *obs.Span
	if j.tracer != nil {
		ctx, root = j.tracer.StartRoot(ctx, "job")
		root.SetStr("id", j.id)
		if j.circuit != nil {
			root.SetStr("circuit", j.circuit.Name())
		}
		defer root.End()
	}
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			e.stats.Panics++
			e.mu.Unlock()
			e.metrics.panics.Inc()
			// Capture the stack at the fault: the recover site says
			// nothing about where the pipeline crashed.
			stack := debug.Stack()
			out, err = nil, fmt.Errorf("engine: job %s panicked: %v\n%s", j.id, r, stack)
			root.SetStr("stack", string(stack))
			root.SetError(err)
		}
	}()
	req := j.req
	if req.Options.Parallelism == 0 {
		// Apply the engine-wide intra-job parallelism default on a local
		// copy: the job's stored request (and its digest) stay as
		// submitted, since the knob does not change the output.
		req.Options.Parallelism = e.cfg.Parallelism
	}
	out, err = e.run(ctx, j.circuit, req)
	root.SetError(err)
	return out, err
}

// finishJob moves a job to its terminal state, updates the counters, and
// enrolls it in the bounded retention queue in one critical section.
func (e *Engine) finishJob(j *Job, state State, out *Outcome, err error) {
	runTime, first := j.finish(state, out, err)
	if !first {
		return // already terminal; counters were updated by that finish
	}
	e.metrics.jobDuration.Observe(runTime.Seconds())
	e.mu.Lock()
	e.stats.RunTime += runTime
	e.countTerminalLocked(state)
	e.retireLocked(j, time.Now())
	e.mu.Unlock()
	if e.cfg.OnTerminal != nil {
		e.cfg.OnTerminal(j.Status())
	}
}

// countTerminalLocked bumps the terminal-state counter; requires e.mu.
func (e *Engine) countTerminalLocked(state State) {
	e.metrics.jobsTotal.With(state.String()).Inc()
	switch state {
	case StateDone:
		e.stats.Completed++
	case StateFailed:
		e.stats.Failed++
	case StateCanceled:
		e.stats.Canceled++
	}
}
