// Package server exposes an alchemist Engine as a JSON-over-HTTP
// profiling service: synchronous compile/profile/advise endpoints, an
// async job queue with live progress streaming over SSE, explicit
// backpressure, and full observability on the engine's own registry.
//
//	POST   /v1/compile          compile a program (warms the engine cache)
//	POST   /v1/profile          profile an input suite, merged (sync)
//	POST   /v1/advise           profile + transformation guidance (sync)
//	POST   /v1/run              execute an input suite (sync)
//	POST   /v1/jobs             submit an async profile/advise/run job
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status, progress, and result
//	DELETE /v1/jobs/{id}        cancel a running job
//	GET    /v1/jobs/{id}/events per-step progress stream (SSE)
//	GET    /healthz             liveness + drain state
//	GET    /metrics             Prometheus text format (plus
//	       /metrics.json and /debug/pprof/ via the obs handler)
//
// One Server fronts one shared Engine. Work is admitted through a
// bounded queue: when every slot is occupied by a queued-or-running
// request the server answers 429 with a Retry-After header instead of
// queueing unboundedly. Every admitted unit of work runs under a
// per-job deadline mapped onto the engine's context plumbing, so a
// stuck program is reclaimed within one VM step-check window of the
// deadline. Finished async jobs are retired from the in-memory store
// after a TTL. Shutdown drains: in-flight jobs run to completion (until
// the drain context expires, which aborts them) while new submissions
// are refused.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/journal"
	"alchemist/internal/obs"
	"alchemist/internal/xtrace"
)

// Options configures a Server. The zero value of every field selects a
// production-safe default; only Engine is required.
type Options struct {
	// Engine is the shared engine all handlers profile against. It must
	// be non-nil; the Engine is safe for concurrent use, so one engine
	// serves every connection.
	Engine *alchemist.Engine

	// Registry receives the server's metrics. Defaults to
	// Engine.Metrics() so the whole stack — VM, profiler, engine,
	// server — lands behind one /metrics endpoint.
	Registry *obs.Registry

	// QueueDepth bounds admitted-but-unfinished units of work (sync
	// profile/advise/run requests plus async jobs). When the queue is
	// full new work is refused with 429 + Retry-After. Default
	// 4*Engine.Workers().
	QueueDepth int

	// RetryAfter is the client backoff hint attached to 429 responses.
	// Default 1s.
	RetryAfter time.Duration

	// APIKeys maps X-Api-Key header values onto client names for
	// per-client rate limits and quotas (several keys may share one
	// name). Requests without a key run as "anonymous"; requests with
	// an unknown key are refused with 401. Empty leaves the server
	// open: the header is ignored and every request is anonymous.
	APIKeys map[string]string

	// RatePerSec is the per-client token-bucket request rate applied to
	// the work endpoints (compile/profile/advise/run/jobs). Violations
	// answer 429 rate_limited with an honest Retry-After. 0 disables.
	RatePerSec float64

	// RateBurst is the token-bucket capacity. Default 2*RatePerSec
	// (minimum 1) when rate limiting is on.
	RateBurst int

	// ClientQuota caps one client's concurrent admitted-but-unfinished
	// units of work (sync requests + async jobs) ahead of the shared
	// queue, so a greedy client cannot occupy every slot. Violations
	// answer 429 quota_exceeded. 0 disables.
	ClientQuota int

	// ShedDeadlines rejects work on arrival (429, honest Retry-After)
	// when the estimated queue wait already exceeds the request's
	// deadline — shedding a guaranteed 504 instead of burning a worker
	// on it.
	ShedDeadlines bool

	// SSEKeepAlive is how often an idle job event stream emits a
	// ": keepalive" comment so proxy/LB idle timeouts do not cut it.
	// 0 means the 15s default; negative disables keepalives.
	SSEKeepAlive time.Duration

	// MaxBodyBytes caps request bodies; larger requests fail with 413.
	// Default 1 MiB.
	MaxBodyBytes int64

	// DefaultTimeout is the per-job deadline applied when a request
	// does not carry its own timeout_ms. Default 1m.
	DefaultTimeout time.Duration

	// MaxTimeout clamps request-supplied deadlines. Default 10m.
	MaxTimeout time.Duration

	// JobTTL retires finished async jobs from the in-memory store this
	// long after completion. Default 15m.
	JobTTL time.Duration

	// MaxJobs caps the job store; the oldest finished jobs are retired
	// first when it overflows. Default 1024.
	MaxJobs int

	// ProgressInterval throttles SSE progress events per job: reports
	// arriving closer together than this are coalesced (the underlying
	// obs.Progress still sees every report). 0 means the 100ms default;
	// negative publishes every report (tests).
	ProgressInterval time.Duration

	// AccessLog receives one structured line per request. Nil disables
	// access logging. When Logger is nil, a text slog handler is built
	// over this writer; set Logger directly for JSON or custom handlers.
	AccessLog io.Writer

	// Logger receives structured access-log records and server
	// diagnostics (panics, scrape-hook failures). Every access record
	// carries trace_id/span_id/client correlation fields. Overrides
	// AccessLog when both are set; nil with a nil AccessLog disables
	// logging.
	Logger *slog.Logger

	// Tracer retains recent and slow request/job span timelines, served
	// at /debug/traces. Defaults to a fresh tracer with default
	// retention; pass one explicitly to share it across servers.
	Tracer *xtrace.Tracer

	// DataDir enables the disk-backed job journal: every job mutation
	// is appended to a write-ahead log under this directory, and New
	// replays it so finished jobs (results and event logs included)
	// survive a restart. Jobs that were queued or running at crash time
	// come back as "interrupted" unless RequeueOnRecovery is set. Empty
	// keeps the store purely in memory.
	DataDir string

	// Fsync selects the journal's fsync policy (journal.SyncAlways /
	// SyncInterval / SyncNone). Default SyncInterval: a crash loses at
	// most FsyncEvery worth of acknowledged records.
	Fsync journal.SyncMode

	// FsyncEvery is the fsync batching period under SyncInterval.
	// Default 100ms.
	FsyncEvery time.Duration

	// SnapshotEvery runs a journal snapshot+compaction cycle after this
	// many appended records, bounding both log size and recovery time.
	// Default 4096; negative disables snapshotting.
	SnapshotEvery int64

	// RequeueOnRecovery re-enqueues jobs that the journal shows as
	// queued or running at crash time (their submitted request is
	// journaled), re-running them instead of marking them interrupted.
	RequeueOnRecovery bool
}

func (o Options) withDefaults() (Options, error) {
	if o.Engine == nil {
		return o, errors.New("server: Options.Engine is required")
	}
	if o.Registry == nil {
		o.Registry = o.Engine.Metrics()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Engine.Workers()
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = time.Minute
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 10 * time.Minute
	}
	if o.JobTTL <= 0 {
		o.JobTTL = 15 * time.Minute
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.ProgressInterval == 0 {
		o.ProgressInterval = 100 * time.Millisecond
	}
	if o.RateBurst <= 0 && o.RatePerSec > 0 {
		o.RateBurst = max(1, int(2*o.RatePerSec))
	}
	if o.SSEKeepAlive == 0 {
		o.SSEKeepAlive = 15 * time.Second
	}
	if o.Fsync == "" {
		o.Fsync = journal.SyncInterval
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Logger == nil && o.AccessLog != nil {
		o.Logger = slog.New(slog.NewTextHandler(o.AccessLog, nil))
	}
	if o.Tracer == nil {
		o.Tracer = xtrace.NewTracer(xtrace.Options{})
	}
	return o, nil
}

// serverMetrics is the server's pre-resolved instrument set.
type serverMetrics struct {
	requests   *obs.Counter
	errors     *obs.Counter
	inflight   *obs.Gauge
	queueDepth *obs.Gauge
	rejects    *obs.Counter
	panics     *obs.Counter

	admitted     *obs.Counter
	rateLimited  *obs.Counter
	quotaRejects *obs.Counter
	sheds        *obs.Counter
	authFailures *obs.Counter

	jobsCreated *obs.Counter
	jobsActive  *obs.Gauge
	jobsRetired *obs.Counter
	sseStreams  *obs.Counter
	sseResumed  *obs.Counter

	jobsRecovered   *obs.Gauge
	jobsInterrupted *obs.Counter
	jobsRequeued    *obs.Counter
	idemReplays     *obs.Counter
	walErrors       *obs.Counter

	// requestsByRoute dimensions request outcomes by route, status
	// code, and client; past obs.MaxLabelCardinality distinct
	// combinations new ones land in the _overflow child.
	requestsByRoute *obs.CounterVec

	latency map[string]*obs.Histogram
}

// routes names every instrumented endpoint; each gets its own latency
// histogram (the registry has no labels, so the route is part of the
// metric name).
var routes = []string{
	"compile", "profile", "advise", "run",
	"jobs_create", "jobs_list", "job_get", "job_cancel", "job_events",
	"job_trace", "health", "version",
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	sm := &serverMetrics{
		requests: r.Counter("alchemist_server_requests_total",
			"HTTP API requests received."),
		errors: r.Counter("alchemist_server_request_errors_total",
			"HTTP API requests answered with a 4xx or 5xx status."),
		inflight: r.Gauge("alchemist_server_inflight_requests",
			"HTTP API requests currently being handled."),
		queueDepth: r.Gauge("alchemist_server_queue_depth",
			"Admitted units of work (sync requests + async jobs) not yet finished."),
		rejects: r.Counter("alchemist_server_admission_rejects_total",
			"Requests refused with 429 because the admission queue was full."),
		admitted: r.Counter("alchemist_server_admission_admitted_total",
			"Units of work that passed the full admission pipeline."),
		rateLimited: r.Counter("alchemist_server_admission_rate_limited_total",
			"Requests refused with 429 rate_limited by a per-client token bucket."),
		quotaRejects: r.Counter("alchemist_server_admission_quota_rejects_total",
			"Requests refused with 429 quota_exceeded by a per-client concurrency quota."),
		sheds: r.Counter("alchemist_server_admission_shed_total",
			"Requests shed on arrival because the estimated queue wait exceeded their deadline."),
		authFailures: r.Counter("alchemist_server_auth_failures_total",
			"Requests refused with 401 for an unknown API key."),
		panics: r.Counter("alchemist_server_panics_total",
			"Handler panics recovered by the middleware."),
		jobsCreated: r.Counter("alchemist_server_jobs_created_total",
			"Async jobs accepted."),
		jobsActive: r.Gauge("alchemist_server_jobs_active",
			"Async jobs currently queued or running."),
		jobsRetired: r.Counter("alchemist_server_jobs_retired_total",
			"Finished async jobs dropped from the store (TTL or capacity)."),
		sseStreams: r.Counter("alchemist_server_sse_streams_total",
			"Job event streams opened."),
		sseResumed: r.Counter("alchemist_server_sse_resumed_total",
			"Job event streams resumed from a client-supplied Last-Event-ID."),
		jobsRecovered: r.Gauge("alchemist_server_jobs_recovered",
			"Jobs rebuilt from the journal at the last startup."),
		jobsInterrupted: r.Counter("alchemist_server_jobs_interrupted_total",
			"Recovered jobs marked interrupted because they were queued or running at crash time."),
		jobsRequeued: r.Counter("alchemist_server_jobs_requeued_total",
			"Recovered jobs re-enqueued for execution (requeue-on-recovery)."),
		idemReplays: r.Counter("alchemist_server_idempotent_replays_total",
			"Job submissions answered with an existing job via Idempotency-Key."),
		walErrors: r.Counter("alchemist_server_journal_errors_total",
			"Job-store journal operations that failed (appends, snapshots)."),
		requestsByRoute: r.CounterVec("alchemist_server_requests_by_route_total",
			"HTTP API requests by route, status code, and client.",
			[]string{"route", "code", "client"}),
		latency: make(map[string]*obs.Histogram, len(routes)),
	}
	for _, route := range routes {
		sm.latency[route] = r.Histogram(
			"alchemist_server_request_seconds_"+route,
			fmt.Sprintf("Wall-clock latency of the %s endpoint.", route), nil)
	}
	return sm
}

// Server is the profiling-as-a-service front end. Construct it with
// New, serve it via Handler (any http.Server) or Start (own listener),
// and stop it with Shutdown (graceful drain) or Close (abort).
type Server struct {
	opts   Options
	eng    *alchemist.Engine
	reg    *obs.Registry
	sm     *serverMetrics
	logger *slog.Logger
	tracer *xtrace.Tracer
	build  obs.BuildInfo
	admit  chan struct{}
	adm    *admission
	store  *jobStore
	wal    *walWriter
	rec    RecoveryStats
	h      http.Handler

	// walOnce guards the journal close across Shutdown/Close.
	walOnce sync.Once

	// lifeCtx outlives every request; cancelling it aborts all async
	// jobs and the janitor.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	mu       sync.Mutex
	draining bool

	// jobWG tracks async job goroutines for shutdown draining.
	jobWG sync.WaitGroup

	httpSrv *http.Server
	ln      net.Listener
}

// RecoveryStats reports what the last New found in the journal.
type RecoveryStats struct {
	// Durable is true when the server runs with a journal (DataDir).
	Durable bool
	// Jobs is how many jobs were rebuilt from disk.
	Jobs int
	// Interrupted is how many recovered jobs had been queued or running
	// at crash time and were marked interrupted.
	Interrupted int
	// Requeued is how many such jobs were re-enqueued instead
	// (RequeueOnRecovery).
	Requeued int
	// TruncatedBytes is the size of the torn journal tail dropped
	// during recovery (0 after a clean shutdown).
	TruncatedBytes int64
}

// New builds a Server from opts and starts its background job janitor.
// With a DataDir, the job journal is replayed first: finished jobs come
// back with results and event logs, jobs lost mid-flight are marked
// interrupted or re-enqueued. Call Close (or Shutdown) to release it.
func New(opts Options) (*Server, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		eng:    opts.Engine,
		reg:    opts.Registry,
		sm:     newServerMetrics(opts.Registry),
		logger: opts.Logger,
		tracer: opts.Tracer,
		admit:  make(chan struct{}, opts.QueueDepth),
		adm:    newAdmission(opts),
	}
	if s.logger != nil {
		// Scrape-hook panics and other registry diagnostics go to the
		// same structured sink as access logs.
		s.reg.SetLogger(s.logger)
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())

	var recovered []*jobSnapshot
	if opts.DataDir != "" {
		jn, rec, err := journal.Open(journal.Options{
			Dir:       opts.DataDir,
			Sync:      opts.Fsync,
			SyncEvery: opts.FsyncEvery,
			Metrics:   journal.NewMetrics(s.reg),
		})
		if err != nil {
			s.lifeCancel()
			return nil, fmt.Errorf("server: opening job journal: %w", err)
		}
		recovered, err = replayState(rec)
		if err != nil {
			jn.Close()
			s.lifeCancel()
			return nil, err
		}
		s.wal = &walWriter{jn: jn, snapEvery: opts.SnapshotEvery, errs: s.sm.walErrors.Inc}
		s.rec = RecoveryStats{Durable: true, TruncatedBytes: rec.TruncatedBytes}
	}
	s.store = newJobStore(opts.JobTTL, opts.MaxJobs, s.sm, s.wal)
	if s.wal != nil {
		s.wal.store = s.store
	}
	s.recoverJobs(recovered)

	obs.RegisterProcess(s.reg)
	s.build = obs.RegisterBuildInfo(s.reg)
	s.h = s.buildHandler()
	go s.janitor()
	return s, nil
}

// recoverJobs rebuilds the store from the journal's durable job states
// and settles every non-terminal job: re-enqueue if configured (and a
// queue slot is free), otherwise mark interrupted.
func (s *Server) recoverJobs(snaps []*jobSnapshot) {
	for _, js := range snaps {
		j := restoreJob(js, s.wal)
		s.store.put(j)
		s.rec.Jobs++
		if j.isTerminal() {
			continue
		}
		if s.opts.RequeueOnRecovery {
			var req client.JobRequest
			if err := json.Unmarshal(j.reqRaw, &req); err == nil {
				if release, ok := s.tryAdmit(); ok {
					j.requeue()
					s.rec.Requeued++
					s.sm.jobsRequeued.Inc()
					s.sm.jobsActive.Add(1)
					s.startJob(j, req, release)
					continue
				}
			}
		}
		j.interrupt("interrupted: server restarted while the job was queued or running")
		s.rec.Interrupted++
		s.sm.jobsInterrupted.Inc()
	}
	s.sm.jobsRecovered.Set(int64(s.rec.Jobs))
}

// Recovery reports what the journal replay found at startup.
func (s *Server) Recovery() RecoveryStats { return s.rec }

// buildHandler assembles the route table with per-route
// instrumentation and mounts the obs endpoints on the same mux.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/profile", s.instrument("profile", handleWork(s, profileTimeout, (*Server).profile)))
	mux.HandleFunc("POST /v1/advise", s.instrument("advise", handleWork(s, profileTimeout, (*Server).advise)))
	mux.HandleFunc("POST /v1/run", s.instrument("run", handleWork(s, runTimeout, (*Server).run)))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs_create", s.handleJobCreate))
	mux.HandleFunc("GET /v1/jobs", s.instrument("jobs_list", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job_get", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("job_cancel", s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("job_trace", s.handleJobTrace))
	mux.HandleFunc("GET /healthz", s.instrument("health", s.handleHealth))
	mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	oh := obs.Handler(s.reg)
	mux.Handle("/metrics", oh)
	mux.Handle("/metrics.json", oh)
	mux.Handle("/debug/pprof/", oh)
	mux.Handle("/debug/traces", xtrace.Handler(s.tracer))
	return mux
}

// Handler returns the fully middleware-wrapped API handler, for
// mounting on an external http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.h }

// Metrics returns the registry the server (and its engine) report into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.h, ReadHeaderTimeout: 10 * time.Second}
	srv := s.httpSrv
	s.mu.Unlock()
	go srv.Serve(ln)
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// URL returns the base http:// URL of the started server.
func (s *Server) URL() string {
	if a := s.Addr(); a != nil {
		return "http://" + a.String()
	}
	return ""
}

// Shutdown gracefully drains the server: new job submissions are
// refused with 503, the listener stops accepting, and in-flight async
// jobs run to completion. If ctx expires first the remaining jobs are
// aborted (each observes cancellation within one VM step-check window)
// and ctx.Err() is returned after they unwind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	httpSrv := s.httpSrv
	s.mu.Unlock()

	// Stop accepting and wait for active connections concurrently with
	// the job drain: SSE streams attached to running jobs stay open
	// until those jobs finish.
	shutRes := make(chan error, 1)
	if httpSrv != nil {
		go func() { shutRes <- httpSrv.Shutdown(ctx) }()
	} else {
		shutRes <- nil
	}

	jobsDone := make(chan struct{})
	go func() { s.jobWG.Wait(); close(jobsDone) }()

	var drainErr error
	select {
	case <-jobsDone:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.lifeCancel() // abort remaining jobs
		<-jobsDone
	}
	httpErr := <-shutRes
	s.lifeCancel() // stop the janitor
	s.closeWal()
	if drainErr != nil {
		return fmt.Errorf("server: drain aborted: %w", drainErr)
	}
	return httpErr
}

// closeWal flushes and closes the job journal exactly once, after every
// job goroutine that could append has unwound.
func (s *Server) closeWal() {
	s.walOnce.Do(func() {
		if s.wal != nil {
			if err := s.wal.close(); err != nil {
				s.sm.walErrors.Inc()
			}
		}
	})
}

// Close abandons everything immediately: running jobs are cancelled and
// open connections closed.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	httpSrv := s.httpSrv
	s.mu.Unlock()
	s.lifeCancel()
	var err error
	if httpSrv != nil {
		err = httpSrv.Close()
	}
	s.jobWG.Wait()
	s.closeWal()
	return err
}

// Kill stops the server the way a crash would: the journal stops
// accepting appends first, then every listener and connection is
// severed, and in-flight jobs are abandoned without their cancellation
// being recorded. The on-disk state is exactly what a SIGKILL at this
// instant would leave — jobs the journal shows as queued or running
// stay that way — so a successor opened over the same DataDir with
// RequeueOnRecovery rehearses real crash recovery. In-process resources
// (goroutines, file handles) are still reclaimed; the Engine survives
// for reuse.
func (s *Server) Kill() error {
	if s.wal != nil {
		s.wal.disabled.Store(true)
	}
	s.mu.Lock()
	s.draining = true
	httpSrv := s.httpSrv
	s.mu.Unlock()
	// Sever the HTTP side before aborting jobs: a crash never delivers
	// "goodbye" events over still-open streams, so neither does Kill.
	var err error
	if httpSrv != nil {
		err = httpSrv.Close()
	}
	s.lifeCancel()
	s.jobWG.Wait()
	s.closeWal()
	return err
}

// janitor retires expired jobs in the background until the server dies.
func (s *Server) janitor() {
	period := s.opts.JobTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case now := <-t.C:
			s.store.sweep(now)
		}
	}
}

// tryAdmit claims one admission-queue slot without blocking. The
// release function is idempotent. A false return means the queue is
// saturated and the caller must answer 429.
func (s *Server) tryAdmit() (release func(), ok bool) {
	select {
	case s.admit <- struct{}{}:
		s.sm.queueDepth.Add(1)
		var once sync.Once
		return func() {
			once.Do(func() {
				<-s.admit
				s.sm.queueDepth.Add(-1)
			})
		}, true
	default:
		s.sm.rejects.Inc()
		return nil, false
	}
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// timeoutFor clamps a request-supplied deadline to the configured
// bounds.
func (s *Server) timeoutFor(timeoutMS int64) time.Duration {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}
