package alchemist

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"alchemist/internal/core"
	"alchemist/internal/obs"
	"alchemist/internal/vm"
	"alchemist/internal/xtrace"
)

// DefaultCacheSize is the compiled-program cache capacity of an Engine
// built without WithCacheSize.
const DefaultCacheSize = 64

// DefaultProgramCost is the program footprint — instruction count plus
// constant count (string pool and global initializers) — charged as one
// cache cost unit. WithCacheSize(n) budgets n units, so n typical
// programs (well under DefaultProgramCost footprint each, costing one
// unit apiece) fit exactly as under the old entry-count semantics, while
// a program k times the default footprint charges k units and displaces
// proportionally more of the cache.
const DefaultProgramCost = 4096

// CompileOptions selects compilation behaviour and is part of the
// program-cache key: the same source compiled with different options
// occupies distinct cache entries.
type CompileOptions struct {
	// Optimize runs the optimization passes (constant folding,
	// unreachable-code elimination) before PCs are assigned.
	Optimize bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the number of worker slots in the Engine's run
// queue. It bounds every VM run on the Engine — Profile, Run, and each
// job of the batch calls — together with the Submit units holding a
// slot. Values < 1 fall back to runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize sets the compiled-program cache budget in units of
// DefaultProgramCost footprint — for typical programs, the entry count.
// 0 keeps DefaultCacheSize; negative disables caching entirely. A
// single program larger than the whole budget is still cached (alone)
// rather than thrashing.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// WithDefaultProfileConfig sets the ProfileConfig used by batch jobs
// that do not carry their own config.
func WithDefaultProfileConfig(cfg ProfileConfig) Option {
	return func(e *Engine) { e.defProfile = cfg }
}

// WithCompileOptions sets the options Engine.Compile uses; CompileWith
// always overrides them per call.
func WithCompileOptions(co CompileOptions) Option {
	return func(e *Engine) { e.defCompile = co }
}

// WithRegistry installs the metrics registry the Engine instruments
// itself into, letting several engines (or other subsystems) share one
// registry behind a single /metrics endpoint. Without it each Engine
// creates its own private registry, available via Metrics().
func WithRegistry(r *obs.Registry) Option {
	return func(e *Engine) { e.reg = r }
}

// CacheStats reports compiled-program cache behaviour.
type CacheStats struct {
	// Hits and Misses count Compile/CompileWith lookups.
	Hits   int64
	Misses int64
	// Coalesced counts misses that waited on a concurrent compile of the
	// same key instead of compiling redundantly (singleflight).
	Coalesced int64
	// Evictions counts entries dropped to stay within the cost budget.
	Evictions int64
	// Entries is the current cache population.
	Entries int
	// Cost is the cached programs' total footprint in DefaultProgramCost
	// units; eviction keeps it within the WithCacheSize budget.
	Cost int64
}

// Engine is the long-lived service entry point: it owns a compiled-
// program LRU cache and a run queue of worker slots that every
// execution waits in, in admission order. An Engine is safe for
// concurrent use by multiple goroutines; the zero value is not usable —
// construct one with NewEngine.
//
// Every engine instruments itself into an obs.Registry (its own, or one
// shared via WithRegistry): cache traffic, compiles, run-queue depth
// and in-flight jobs, per-job wall time, VM dispatch-loop counters, and
// profiler shadow/pool activity. Metrics() exposes the registry;
// obs.StartServer serves it over HTTP.
type Engine struct {
	workers    int
	cacheCap   int
	defProfile ProfileConfig
	defCompile CompileOptions

	reg *obs.Registry
	em  *engineMetrics
	vmm *vm.Metrics

	// q hands out the worker slots every execution runs on.
	q *runQueue

	// scratch holds one set of profiling buffers (shadow memory,
	// construct pool) per worker slot, the most recently used last. A
	// profile takes one only while it holds a slot, so one is always
	// there. Taking the last keeps a lone caller on one warm set, and
	// the others stay empty until profiles run side by side.
	scratchMu sync.Mutex
	scratch   []*core.Scratch

	mu     sync.Mutex
	cache  map[programKey]*list.Element
	order  *list.List // front = most recently used
	flight map[programKey]*compileFlight
	cost   int64 // total cached cost, DefaultProgramCost units
	stats  CacheStats
}

// engineMetrics is the Engine's pre-resolved instrument set.
type engineMetrics struct {
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	coalesced      *obs.Counter
	compiles       *obs.Counter
	compileErrors  *obs.Counter
	cacheEntries   *obs.Gauge
	cacheCost      *obs.Gauge

	queueDepth   *obs.Gauge
	inflightJobs *obs.Gauge
	jobs         *obs.Counter
	jobErrors    *obs.Counter
	jobWall      *obs.Histogram

	shadowLoads   *obs.Counter
	shadowStores  *obs.Counter
	poolReused    *obs.Counter
	poolAllocated *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		cacheHits: r.Counter("alchemist_engine_cache_hits_total",
			"Compiled-program cache lookups served from the cache."),
		cacheMisses: r.Counter("alchemist_engine_cache_misses_total",
			"Compiled-program cache lookups that had to compile or wait."),
		cacheEvictions: r.Counter("alchemist_engine_cache_evictions_total",
			"Cache entries dropped to stay within the cost budget."),
		coalesced: r.Counter("alchemist_engine_singleflight_coalesced_total",
			"Cache misses that waited on an in-flight compile of the same key."),
		compiles: r.Counter("alchemist_engine_compiles_total",
			"Full lexer/parser/sema/compile pipeline runs."),
		compileErrors: r.Counter("alchemist_engine_compile_errors_total",
			"Compile pipeline runs that failed."),
		cacheEntries: r.Gauge("alchemist_engine_cache_entries",
			"Current compiled-program cache population."),
		cacheCost: r.Gauge("alchemist_engine_cache_cost_units",
			"Current cache footprint in DefaultProgramCost units."),
		queueDepth: r.Gauge("alchemist_engine_queue_depth",
			"Submit units and VM runs waiting in the run queue for a worker slot."),
		inflightJobs: r.Gauge("alchemist_engine_inflight_jobs",
			"VM runs holding a worker slot and executing."),
		jobs: r.Counter("alchemist_engine_jobs_total",
			"VM runs (profiled or plain) completed, including failed ones."),
		jobErrors: r.Counter("alchemist_engine_job_errors_total",
			"VM runs that failed (including cancellations)."),
		jobWall: r.Histogram("alchemist_engine_job_wall_seconds",
			"Wall-clock time of one VM run on its worker slot.", nil),
		shadowLoads: r.Counter("alchemist_profile_shadow_loads_total",
			"Shadow-memory read records across profiled runs."),
		shadowStores: r.Counter("alchemist_profile_shadow_stores_total",
			"Shadow-memory write records across profiled runs."),
		poolReused: r.Counter("alchemist_profile_pool_reused_total",
			"Construct-pool acquisitions served by recycling a retired node."),
		poolAllocated: r.Counter("alchemist_profile_pool_allocated_total",
			"Construct-pool nodes created by profiled runs (a worker slot's first preallocation included)."),
	}
}

// programKey identifies one cache entry: the source identity plus every
// compile option that changes the produced bytecode.
type programKey struct {
	name     string
	srcHash  [sha256.Size]byte
	optimize bool
}

type programEntry struct {
	key  programKey
	prog *Program
	cost int64
}

// compileFlight is one in-flight compile that concurrent misses of the
// same key wait on instead of compiling redundantly.
type compileFlight struct {
	done chan struct{}
	prog *Program
	err  error
}

// NewEngine builds an Engine. With no options it caches up to
// DefaultCacheSize programs and runs GOMAXPROCS executions at a time.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{cacheCap: DefaultCacheSize}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cacheCap == 0 {
		e.cacheCap = DefaultCacheSize
	}
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.em = newEngineMetrics(e.reg)
	e.vmm = vm.NewMetrics(e.reg)
	e.scratch = make([]*core.Scratch, e.workers)
	for i := range e.scratch {
		e.scratch[i] = &core.Scratch{}
	}
	e.q = &runQueue{free: e.workers, depth: e.em.queueDepth}
	if e.cacheCap > 0 {
		e.cache = make(map[programKey]*list.Element)
		e.order = list.New()
		e.flight = make(map[programKey]*compileFlight)
	}
	return e
}

// Workers reports the number of worker slots: the bound on concurrent
// executions.
func (e *Engine) Workers() int { return e.workers }

// Metrics returns the registry this Engine instruments itself into —
// the one installed with WithRegistry, or the Engine's private one.
// Serve it with obs.StartServer or render it with WritePrometheus /
// WriteJSON.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// CacheStats returns a snapshot of the compiled-program cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// programCost charges a compiled program's footprint (instructions plus
// constants) in DefaultProgramCost units, minimum one.
func programCost(p *Program) int64 {
	foot := int64(p.ir.NumPCs) + int64(len(p.ir.Strings)) + int64(len(p.ir.GlobalInit))
	units := (foot + DefaultProgramCost - 1) / DefaultProgramCost
	if units < 1 {
		units = 1
	}
	return units
}

// Compile returns the compiled program for (name, src), reusing the
// cache when the same source was compiled with the same options before.
// Hot sources therefore skip the lexer/parser/sema/compile pipeline
// entirely. The returned *Program is shared: it is immutable after
// compilation and safe for concurrent Run/Profile calls.
func (e *Engine) Compile(ctx context.Context, name, src string) (*Program, error) {
	return e.CompileWith(ctx, name, src, e.defCompile)
}

// CompileWith is Compile with explicit per-call options. Concurrent
// misses of the same (source, options) key are singleflighted: one call
// compiles while the others wait for its result, so a thundering herd
// on a cold source costs one pipeline run, not one per caller.
func (e *Engine) CompileWith(ctx context.Context, name, src string, co CompileOptions) (*Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := xtrace.StartSpan(ctx, "compile")
	defer sp.End()
	if e.cache == nil { // caching disabled
		sp.SetAttr("cache", "off")
		return e.compileCounted(name, src, co)
	}
	key := programKey{name: name, srcHash: sha256.Sum256([]byte(src)), optimize: co.Optimize}

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.order.MoveToFront(el)
		e.stats.Hits++
		e.em.cacheHits.Inc()
		prog := el.Value.(*programEntry).prog
		e.mu.Unlock()
		sp.SetAttr("cache", "hit")
		return prog, nil
	}
	e.stats.Misses++
	e.em.cacheMisses.Inc()
	if fl, ok := e.flight[key]; ok {
		// Coalesce onto the in-flight compile of the same key.
		e.stats.Coalesced++
		e.em.coalesced.Inc()
		e.mu.Unlock()
		sp.SetAttr("cache", "coalesced")
		select {
		case <-fl.done:
			return fl.prog, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &compileFlight{done: make(chan struct{})}
	e.flight[key] = fl
	e.mu.Unlock()
	sp.SetAttr("cache", "miss")

	// Compile outside the lock: a slow compile must not stall cache hits
	// on other sources. Waiters for this key block on fl.done instead.
	prog, err := e.compileCounted(name, src, co)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}

	e.mu.Lock()
	fl.prog, fl.err = prog, err
	delete(e.flight, key)
	if err == nil {
		e.insertLocked(key, prog)
	}
	e.mu.Unlock()
	close(fl.done)
	return prog, err
}

// compileCounted runs the compile pipeline under the pipeline counters.
func (e *Engine) compileCounted(name, src string, co CompileOptions) (*Program, error) {
	e.em.compiles.Inc()
	prog, err := compileProgram(name, src, co)
	if err != nil {
		e.em.compileErrors.Inc()
	}
	return prog, err
}

// insertLocked caches prog under key and evicts from the LRU tail until
// the total cost fits the budget again. The newest entry is never
// evicted, so one oversized program caches alone instead of thrashing.
func (e *Engine) insertLocked(key programKey, prog *Program) {
	if el, ok := e.cache[key]; ok { // lost a benign race; adopt
		e.order.MoveToFront(el)
		return
	}
	cost := programCost(prog)
	el := e.order.PushFront(&programEntry{key: key, prog: prog, cost: cost})
	e.cache[key] = el
	e.cost += cost
	for e.cost > int64(e.cacheCap) && e.order.Len() > 1 {
		oldest := e.order.Back()
		ent := oldest.Value.(*programEntry)
		e.order.Remove(oldest)
		delete(e.cache, ent.key)
		e.cost -= ent.cost
		e.stats.Evictions++
		e.em.cacheEvictions.Inc()
	}
	e.stats.Entries = e.order.Len()
	e.stats.Cost = e.cost
	e.em.cacheEntries.Set(int64(e.order.Len()))
	e.em.cacheCost.Set(e.cost)
}

// Run executes p without instrumentation under ctx: a one-job RunEach.
func (e *Engine) Run(ctx context.Context, p *Program, cfg RunConfig) (*RunResult, error) {
	r := <-e.RunEach(ctx, p, []RunJob{{Config: &cfg}})
	return r.Run, r.Err
}

// Profile executes p sequentially under the profiler under ctx: a
// one-job ProfileEach. A config requesting parallel execution is
// rejected with ErrProfileNeedsSequential.
func (e *Engine) Profile(ctx context.Context, p *Program, cfg ProfileConfig) (*Profile, *RunResult, error) {
	r := <-e.ProfileEach(ctx, p, []ProfileJob{{Config: &cfg}})
	return r.Profile, r.Run, r.Err
}

// execute runs one execution on the worker slot the caller holds: timed
// into the jobWall histogram, counted as in flight and as a job,
// recorded as a span, and labelled batch_job for CPU profiles (a server
// job's job_id/endpoint labels arrive in ctx).
func (e *Engine) execute(ctx context.Context, span string, i int, fn func(ctx context.Context) error) error {
	_, sp := xtrace.StartSpan(ctx, span)
	sp.SetAttr("batch_job", strconv.Itoa(i))
	e.em.inflightJobs.Add(1)
	start := time.Now()
	var err error
	pprof.Do(ctx, pprof.Labels("batch_job", strconv.Itoa(i)), func(ctx context.Context) {
		err = fn(ctx)
	})
	e.em.jobWall.Observe(time.Since(start).Seconds())
	e.em.inflightJobs.Add(-1)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	e.countJob(err)
	return err
}

// countJob counts one finished (or abandoned) execution.
func (e *Engine) countJob(err error) {
	e.em.jobs.Inc()
	if err != nil {
		e.em.jobErrors.Inc()
	}
}

// ProfileJob is one profiling run within a batch: an input stream plus
// an optional per-job config.
type ProfileJob struct {
	// Input is served to the program via the in()/inlen() builtins.
	Input []int64
	// Config overrides the engine's default profile config for this job.
	// When nil the engine default applies. In both cases a non-nil
	// Input above replaces the config's Input field.
	Config *ProfileConfig
	// OnProgress, when set, receives the job's executed instruction
	// count: every vm.CancelCheckInterval steps — piggybacked on the
	// dispatch loop's existing cancellation check, so it costs nothing
	// extra per instruction — and once more with the final total when
	// the job completes. Reports are monotonically non-decreasing and
	// delivered from the job's worker goroutine; the callback must be
	// safe for concurrent use across jobs. It overrides any OnProgress
	// in the job's config.
	OnProgress func(steps int64)
}

// BatchResult is the outcome of one ProfileJob.
type BatchResult struct {
	// Job indexes into the jobs slice passed to ProfileBatch/ProfileEach.
	Job int
	// Profile and Run are set when Err is nil.
	Profile *Profile
	Run     *RunResult
	// Err is the job's failure, including ctx.Err() for jobs abandoned
	// after cancellation.
	Err error
}

// withJob lays a batch job's Input and OnProgress, when set, over c.
func (c RunConfig) withJob(input []int64, onProgress func(int64)) RunConfig {
	if input != nil {
		c.Input = input
	}
	if onProgress != nil {
		c.OnProgress = onProgress
	}
	return c
}

// profile runs p sequentially under the profiler, on the scratch
// buffers of the worker slot the caller holds, and folds the profile's
// shadow-memory and construct-pool counters into the registry.
func (e *Engine) profile(ctx context.Context, p *Program, cfg ProfileConfig) (*Profile, *RunResult, error) {
	if cfg.Parallel || cfg.SimWorkers > 0 {
		return nil, nil, ErrProfileNeedsSequential
	}
	opts := core.DefaultOptions()
	opts.TrackWAR, opts.TrackWAW = !cfg.DisableWAR, !cfg.DisableWAW
	opts.ReaderSlots, opts.PoolPrealloc = cfg.ReaderSlots, cfg.PoolPrealloc
	e.scratchMu.Lock()
	opts.Scratch = e.scratch[len(e.scratch)-1]
	e.scratch = e.scratch[:len(e.scratch)-1]
	e.scratchMu.Unlock()
	prof, res, err := core.ProfileProgramCtx(ctx, p.ir, cfg.vmConfig(e.vmm), opts)
	e.em.poolAllocated.Add(opts.Scratch.NodesCreated())
	e.scratchMu.Lock()
	e.scratch = append(e.scratch, opts.Scratch)
	e.scratchMu.Unlock()
	if prof != nil {
		e.em.shadowLoads.Add(prof.Shadow.Loads)
		e.em.shadowStores.Add(prof.Shadow.Stores)
		e.em.poolReused.Add(prof.Pool.Reused)
	}
	return prof, res, err
}

// each queues n executions for ctx in one go, then starts them in job
// order as worker slots pass to them, streaming one result per job in
// completion order on the returned channel (closed after the last
// result). Cancellation fails the jobs that have not started via abort.
func each[R any](e *Engine, ctx context.Context, n int, run func(ctx context.Context, i int) R, abort func(i int, err error) R) <-chan R {
	if ctx == nil { // tolerate nil like every other entry point
		ctx = context.Background()
	}
	r := e.queueRuns(ctx, n)
	out := make(chan R, n)
	go func() {
		var wg sync.WaitGroup
		for i, w := range r.ws {
			if !e.q.wait(ctx, w) {
				e.countJob(ctx.Err())
				r.finish(ctx, false)
				out <- abort(i, ctx.Err())
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := run(ctx, i)
				r.finish(ctx, true)
				out <- res
			}()
		}
		wg.Wait()
		close(out)
	}()
	return out
}

// ProfileEach queues one profiling run per job on the engine's run
// queue and streams one BatchResult per job in completion order. The
// returned channel is closed after the last result. Cancelling ctx
// aborts running jobs (each observes it within one VM step-check
// window) and fails not-yet-started ones with ctx.Err().
func (e *Engine) ProfileEach(ctx context.Context, p *Program, jobs []ProfileJob) <-chan BatchResult {
	return each(e, ctx, len(jobs),
		func(ctx context.Context, i int) BatchResult {
			r, job, cfg := BatchResult{Job: i}, jobs[i], e.defProfile
			if job.Config != nil {
				cfg = *job.Config
			}
			cfg.RunConfig = cfg.withJob(job.Input, job.OnProgress)
			r.Err = e.execute(ctx, "profile", i, func(ctx context.Context) (err error) {
				r.Profile, r.Run, err = e.profile(ctx, p, cfg)
				return err
			})
			return r
		},
		func(i int, err error) BatchResult { return BatchResult{Job: i, Err: err} })
}

// ProfileBatch profiles p over all jobs concurrently and merges the
// per-job profiles, in job order, into one union profile — equivalent
// to (and byte-identical with, via WriteJSON) calling Profile per job
// sequentially and passing the results to Merge. The per-job results
// are returned in job order alongside the merged profile. If any job
// fails, the merged profile is nil and the error is the failure of the
// lowest-indexed failing job.
func (e *Engine) ProfileBatch(ctx context.Context, p *Program, jobs []ProfileJob) (*Profile, []BatchResult, error) {
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("alchemist: ProfileBatch needs at least one job")
	}
	results := make([]BatchResult, len(jobs))
	for r := range e.ProfileEach(ctx, p, jobs) {
		results[r.Job] = r
	}
	profiles := make([]*Profile, len(jobs))
	for i, r := range results {
		if r.Err != nil {
			return nil, results, fmt.Errorf("alchemist: batch job %d: %w", i, r.Err)
		}
		profiles[i] = r.Profile
	}
	merged, err := Merge(profiles...)
	if err != nil {
		return nil, results, err
	}
	return merged, results, nil
}

// RunJob is one uninstrumented execution within a batch: an input
// stream plus an optional per-job run config.
type RunJob struct {
	// Input is served to the program via the in()/inlen() builtins.
	Input []int64
	// Config overrides the engine's default run config (the RunConfig
	// embedded in the default profile config) for this job. In both
	// cases a non-nil Input above replaces the config's Input field.
	Config *RunConfig
	// OnProgress mirrors ProfileJob.OnProgress: executed-step reports
	// every vm.CancelCheckInterval steps plus a final total, delivered
	// from the job's worker goroutine. It overrides any OnProgress in
	// the job's config.
	OnProgress func(steps int64)
}

// RunBatchResult is the outcome of one RunJob.
type RunBatchResult struct {
	// Job indexes into the jobs slice passed to RunBatch/RunEach.
	Job int
	// Run is set when Err is nil.
	Run *RunResult
	// Err is the job's failure, including ctx.Err() for jobs abandoned
	// after cancellation.
	Err error
}

// RunEach queues one uninstrumented execution per job on the engine's
// run queue — the same queue ProfileEach uses, so mixed run/profile
// load shares one concurrency bound — and streams one RunBatchResult
// per job in completion order. The returned channel is closed after the
// last result.
func (e *Engine) RunEach(ctx context.Context, p *Program, jobs []RunJob) <-chan RunBatchResult {
	return each(e, ctx, len(jobs),
		func(ctx context.Context, i int) RunBatchResult {
			r, job, cfg := RunBatchResult{Job: i}, jobs[i], e.defProfile.RunConfig
			if job.Config != nil {
				cfg = *job.Config
			}
			cfg = cfg.withJob(job.Input, job.OnProgress)
			r.Err = e.execute(ctx, "run", i, func(ctx context.Context) (err error) {
				r.Run, err = core.RunProgramCtx(ctx, p.ir, cfg.vmConfig(e.vmm))
				return err
			})
			return r
		},
		func(i int, err error) RunBatchResult { return RunBatchResult{Job: i, Err: err} })
}

// RunBatch executes p over all jobs concurrently, mirroring
// ProfileBatch for plain runs: results come back in job order, and the
// returned error is the failure of the lowest-indexed failing job (the
// per-job results still carry every individual outcome).
func (e *Engine) RunBatch(ctx context.Context, p *Program, jobs []RunJob) ([]RunBatchResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("alchemist: RunBatch needs at least one job")
	}
	results := make([]RunBatchResult, len(jobs))
	for r := range e.RunEach(ctx, p, jobs) {
		results[r.Job] = r
	}
	for i, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("alchemist: batch job %d: %w", i, r.Err)
		}
	}
	return results, nil
}
