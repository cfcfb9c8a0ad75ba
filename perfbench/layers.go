package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"alchemist"
	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// probeReps is how often each single-call probe repeats; it reports the
// median.
const probeReps = 15

// tracedRun is the --trace 1 run. It measures the workload untraced and
// then traced for half the time each (their difference is the tracing
// overhead), diffs the engine registry across the traced half, asks the
// workload for its own layer metrics, and finally times direct calls
// into each layer's public functions: the compile probe, the cost
// ladder over the 8 paper workloads, and the set-up, reset, report and
// merge probes. Spans are kept in memory and written out at the end.
func tracedRun(w workload, name string, seed uint64, d time.Duration, res *result) (metrics, error) {
	out := metrics{}
	log := &spanLog{}

	plain := measure(w, d/2, nil)
	before := w.engineRegistry().Snapshot()
	traced := measure(w, d/2, log)
	after := w.engineRegistry().Snapshot()
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	printPhase(plain)
	printPhase(traced)

	p50, t50 := Summarize(plain.latencies()).P50, Summarize(traced.latencies()).P50
	out.set("trace.overhead_pct", 100*(t50/p50-1), "%")
	out.set("gen.samples", float64(traced.ops()), "count")
	lag := 0.0
	if len(traced.lag) > 0 {
		lag = Summarize(traced.lag).Tail
	}
	out.set("gen.lag_p99_ms", lag, "ms")
	out.set("gen.steal_pct", traced.stealPct, "%")

	registryLayers(before, after, traced, out)
	// Layers a workload does not exercise read zero.
	out.set("server.overhead_ms_p50", 0, "ms")
	for _, m := range spanNames {
		out.set(m, 0, "ms")
	}
	w.layers(log, out, traced)
	if err := probeLayers(log, w.sources(), out); err != nil {
		return nil, err
	}
	path, err := log.writeFile(name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s\n", path)
	printSelfTimes(log)
	return out, nil
}

func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// histP50 interpolates the median of the observations a histogram got
// between two snapshots, linearly within the bucket that holds it.
func histP50(a, b obs.Snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	n := hb.Count - ha.Count
	if n <= 0 {
		return 0
	}
	target := float64(n) / 2
	lower, prevCum := 0.0, 0.0
	for i, bk := range hb.Buckets {
		cum := float64(bk.Count)
		if i < len(ha.Buckets) {
			cum -= float64(ha.Buckets[i].Count)
		}
		if cum >= target {
			if math.IsInf(bk.UpperBound, 1) {
				return lower
			}
			return lower + (bk.UpperBound-lower)*(target-prevCum)/(cum-prevCum)
		}
		lower, prevCum = bk.UpperBound, cum
	}
	return lower
}

// registryLayers turns the engine registry's counters over the traced
// phase into per-layer metrics.
func registryLayers(a, b obs.Snapshot, p *phase, out metrics) {
	hits := counterDelta(a, b, "alchemist_engine_cache_hits_total")
	lookups := hits + counterDelta(a, b, "alchemist_engine_cache_misses_total")
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	out.set("engine.cache_hit_ratio", ratio, "ratio")
	out.set("engine.cache_lookups", lookups, "count")
	out.set("engine.compiles", counterDelta(a, b, "alchemist_engine_compiles_total"), "count")
	out.set("engine.scratch_news", counterDelta(a, b, "alchemist_engine_scratch_news_total"), "count")
	out.set("engine.job_wall_ms_p50", 1000*histP50(a, b, "alchemist_engine_job_wall_seconds"), "ms")
	out.set("vm.steps", counterDelta(a, b, "alchemist_vm_steps_total"), "count")
	out.set("server.admission_rejects", counterDelta(a, b, "alchemist_server_admission_rejects_total"), "count")
	out.set("server.request_errors", counterDelta(a, b, "alchemist_server_request_errors_total"), "count")

	ops := float64(max(p.ops(), 1))
	jobs := counterDelta(a, b, "alchemist_server_jobs_created_total")
	perJob := func(v float64) float64 {
		if jobs == 0 {
			return 0
		}
		return v / jobs
	}
	out.set("journal.appends", perJob(counterDelta(a, b, "alchemist_journal_appends_total")), "count")
	out.set("journal.fsyncs", perJob(counterDelta(a, b, "alchemist_journal_fsyncs_total")), "count")
	out.set("journal.bytes", perJob(counterDelta(a, b, "alchemist_journal_append_bytes_total")), "B")
	out.set("journal.append_ms_p50", 1000*histP50(a, b, "alchemist_journal_append_seconds"), "ms")
	out.set("process.gc_cycles", float64(p.gcCycles)/ops, "count")
	out.set("process.gc_pause_ms", ms(p.gcPause)/ops, "ms")
}

// noopTracer receives every VM hook and does nothing: the ladder rung
// that prices the vm.Tracer boundary alone.
type noopTracer struct{}

func (noopTracer) Step(int)                    {}
func (noopTracer) Load(int64, int)             {}
func (noopTracer) Store(int64, int)            {}
func (noopTracer) EnterFunc(*ir.Func)          {}
func (noopTracer) ExitFunc(*ir.Func)           {}
func (noopTracer) Branch(*ir.Instr, int, bool) {}

// hookCounter counts every hook call and delegates it to the profiler.
type hookCounter struct {
	p                                   *core.Profiler
	steps, loads, stores, branches, fns int64
}

func (h *hookCounter) Step(gpc int)              { h.steps++; h.p.Step(gpc) }
func (h *hookCounter) Load(addr int64, gpc int)  { h.loads++; h.p.Load(addr, gpc) }
func (h *hookCounter) Store(addr int64, gpc int) { h.stores++; h.p.Store(addr, gpc) }
func (h *hookCounter) EnterFunc(f *ir.Func)      { h.fns++; h.p.EnterFunc(f) }
func (h *hookCounter) ExitFunc(f *ir.Func)       { h.fns++; h.p.ExitFunc(f) }
func (h *hookCounter) Branch(in *ir.Instr, gpc int, taken bool) {
	h.branches++
	h.p.Branch(in, gpc, taken)
}

// rungs of the cost ladder, cheapest first.
var rungs = []string{"native", "noop", "raw", "full"}

// ladderRun executes one workload at DefaultScale on one rung, with a
// span around each layer call, and returns the rung's wall time and the
// profile (nil for the unprofiled rungs). Each profiled rung builds a
// fresh profiler, as one Table III run does, so its set-up shows as the
// core.NewProfiler span.
func ladderRun(log *spanLog, rung string, w *progs.Workload, prog *ir.Program, in []int64) (time.Duration, *core.Profile, error) {
	start := time.Now()
	root := log.begin("ladder."+rung, w.Name, -1)
	defer log.end(root)
	cfg := vm.Config{MemWords: w.MemWords, Input: in}
	var prof *core.Profiler
	switch rung {
	case "noop":
		cfg.Tracer = noopTracer{}
	case "raw", "full":
		opts := core.DefaultOptions()
		opts.TrackWAR, opts.TrackWAW = rung == "full", rung == "full"
		log.timed("core.NewProfiler", w.Name, root, func() { prof = core.NewProfiler(prog, w.MemWords, opts) })
		cfg.Tracer = prof
	}
	var m *vm.VM
	var err error
	log.timed("vm.New", w.Name, root, func() { m, err = vm.New(prog, cfg) })
	if err != nil {
		return 0, nil, err
	}
	log.timed("VM.Run", w.Name, root, func() { _, err = m.Run() })
	if err != nil || prof == nil {
		return time.Since(start), nil, err
	}
	var p *core.Profile
	log.timed("Profiler.Finish", w.Name, root, func() { p = prof.Finish() })
	return time.Since(start), p, nil
}

// probeLayers times direct calls into each layer's public functions.
func probeLayers(log *spanLog, srcs []source, out metrics) error {
	for rep := 0; rep < 3; rep++ {
		for _, s := range srcs {
			var err error
			log.timed("compile.BuildConfig", s.name, -1, func() { _, err = compile.BuildConfig(s.name, s.src, compile.Config{}) })
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.name, err)
			}
		}
	}
	out.set("compile.build_us_p50", 1000*Median(log.byName("compile.BuildConfig")), "us")

	trivial, err := compile.BuildConfig("trivial.mc", "int main() { return 7; }", compile.Config{})
	if err != nil {
		return err
	}
	for i := 0; i < probeReps; i++ {
		log.timed("probe.vm.New", "default MemWords", -1, func() { _, err = vm.New(trivial, vm.Config{}) })
		if err != nil {
			return err
		}
		log.timed("probe.core.NewProfiler", "default", -1, func() { core.NewProfiler(trivial, 0, core.DefaultOptions()) })
	}
	out.set("vm.new_ms", Median(log.byName("probe.vm.New")), "ms")
	out.set("profile.new_profiler_ms", Median(log.byName("probe.core.NewProfiler")), "ms")
	pool := indexing.NewPool(1 << 16)
	for i := 0; i < probeReps; i++ {
		log.timed("indexing.Pool.Reset", "65536 nodes", -1, pool.Reset)
	}
	out.set("indexing.pool_reset_us", 1000*Median(log.byName("indexing.Pool.Reset")), "us")

	if err := ladder(log, out); err != nil {
		return err
	}
	return mergeProbe(log, out)
}

// ladder runs the 4-rung cost ladder on each paper workload, then the
// hook-counting pass, and reports the rungs, the hook counts and the
// indexing/shadow counters of the full profiles.
func ladder(log *spanLog, out metrics) error {
	var stats struct{ reused, allocated, rotations, loads, stores, pages, evicted int64 }
	var hooks hookCounter
	var full []*core.Profile
	for _, w := range progs.All() {
		prog, err := compile.BuildConfig(w.Name+".mc", w.Source, compile.Config{})
		if err != nil {
			return err
		}
		in := w.InputFor(0)
		for _, rung := range rungs {
			d, p, err := ladderRun(log, rung, w, prog, in)
			if err != nil {
				return fmt.Errorf("ladder %s %s: %w", rung, w.Name, err)
			}
			out.set(fmt.Sprintf("ladder.%s_ms.%s", rung, w.Name), ms(d), "ms")
			if rung == "full" {
				full = append(full, p)
				stats.reused += p.Pool.Reused
				stats.allocated += p.Pool.Allocated
				stats.rotations += p.Pool.Rotations
				stats.loads += p.Shadow.Loads
				stats.stores += p.Shadow.Stores
				stats.pages += p.Shadow.PagesAllocated
				stats.evicted += p.Shadow.EvictedReaders
				if got, want := digestProfile(p), recordedDigests[digestKey(w, 0)]; got != want {
					return fmt.Errorf("ladder full rung %s: digest %.12s, recorded %.12s", w.Name, got, want)
				}
			}
		}
		hooks.p = core.NewProfiler(prog, w.MemWords, core.DefaultOptions())
		m, err := vm.New(prog, vm.Config{MemWords: w.MemWords, Input: in, Tracer: &hooks})
		if err != nil {
			return err
		}
		if _, err := m.Run(); err != nil {
			return err
		}
		if got, want := digestProfile(hooks.p.Finish()), recordedDigests[digestKey(w, 0)]; got != want {
			return fmt.Errorf("hook-counting pass %s: digest %.12s, recorded %.12s", w.Name, got, want)
		}
		runtime.GC() // keep one workload's garbage out of the next rung's timing
	}
	out.set("hooks.step_calls", float64(hooks.steps), "count")
	out.set("hooks.load_calls", float64(hooks.loads), "count")
	out.set("hooks.store_calls", float64(hooks.stores), "count")
	out.set("hooks.branch_calls", float64(hooks.branches), "count")
	out.set("hooks.func_calls", float64(hooks.fns), "count")
	out.set("profile.finish_ms", Median(log.byName("Profiler.Finish")), "ms")
	out.set("indexing.pool_reused", float64(stats.reused), "count")
	out.set("indexing.pool_allocated", float64(stats.allocated), "count")
	out.set("indexing.pool_rotations", float64(stats.rotations), "count")
	out.set("shadow.loads", float64(stats.loads), "count")
	out.set("shadow.stores", float64(stats.stores), "count")
	out.set("shadow.pages_allocated", float64(stats.pages), "count")
	out.set("shadow.evicted_readers", float64(stats.evicted), "count")
	for _, p := range full {
		log.timed("report.WriteJSON", "", -1, func() { _ = report.WriteJSON(io.Discard, p) })
	}
	out.set("report.writejson_ms", Median(log.byName("report.WriteJSON")), "ms")
	return nil
}

// mergeProbe profiles each paper workload at its 4 mid scales through
// Engine.Profile and times core.Merge over them, as a multi-scale async
// job does.
func mergeProbe(log *spanLog, out metrics) error {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	for _, w := range progs.All() {
		var prog *alchemist.Program
		var err error
		log.timed("Engine.Compile", w.Name, -1, func() { prog, err = eng.Compile(ctx, w.Name+".mc", w.Source) })
		if err != nil {
			return err
		}
		var profs []*core.Profile
		for _, sc := range midScales[w.Name] {
			var p *core.Profile
			cfg := alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: w.InputFor(sc), MemWords: w.MemWords}}
			log.timed("Engine.Profile", fmt.Sprintf("%s@%d", w.Name, sc), -1, func() { p, _, err = eng.Profile(ctx, prog, cfg) })
			if err != nil {
				return err
			}
			profs = append(profs, p)
		}
		log.timed("core.Merge", w.Name, -1, func() { _, err = core.Merge(profs...) })
		if err != nil {
			return err
		}
	}
	out.set("report.merge_ms", Median(log.byName("core.Merge")), "ms")
	return nil
}

// printSelfTimes prints each span name's total self time, the per-layer
// breakdown of where the traced run's time went.
func printSelfTimes(log *spanLog) {
	st := log.selfTimes()
	for _, n := range sortedKeys(st) {
		fmt.Printf("  self %-34s %12.3f ms\n", n, st[n])
	}
}
