// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§IV) from the embedded workloads:
// Table III (profiling cost and construct counts), Fig. 6(a)–(d) (profile
// quality on previously-parallelized programs), Table IV (conflict counts
// at the parallelized locations), and Table V (realized speedups of the
// spawn/sync variants).
package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"alchemist"
	"alchemist/internal/core"
	"alchemist/internal/indexing"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// Scale selects input sizes: 0 uses each workload's default (the paper
// configuration); otherwise the workload-specific small scale times the
// factor. It doubles as the harness run configuration: every compile
// and VM run goes through an alchemist.Engine reporting into Registry,
// and an optional Progress aggregate sees every run.
type Scale struct {
	// Small uses each workload's SmallScale input (fast CI runs).
	Small bool
	// Registry, when non-nil, is the metrics registry of the Engines the
	// harness runs on: compiles, jobs, VM dispatch counters, and
	// profiler activity of every run land in it.
	Registry *obs.Registry
	// Progress, when non-nil, receives live step counts: every VM run
	// the harness performs allocates one job slot, reports into it via
	// OnProgress, and marks it done on completion.
	Progress *obs.Progress
}

func inputFor(w *progs.Workload, sc Scale) []int64 {
	if sc.Small {
		return w.InputFor(w.SmallScale)
	}
	return w.InputFor(0)
}

// engine builds an Engine with the given number of worker slots,
// reporting into the Scale's Registry.
func (sc Scale) engine(workers int) *alchemist.Engine {
	opts := []alchemist.Option{alchemist.WithWorkers(workers)}
	if sc.Registry != nil {
		opts = append(opts, alchemist.WithRegistry(sc.Registry))
	}
	return alchemist.NewEngine(opts...)
}

// runConfig assembles one run's configuration, threading the optional
// Progress aggregate. The returned done function marks the run's
// progress slot complete; call it once the run has finished.
func (sc Scale) runConfig(input []int64, memWords int64, simWorkers int) (alchemist.RunConfig, func()) {
	cfg := alchemist.RunConfig{Input: input, MemWords: memWords, SimWorkers: simWorkers}
	if sc.Progress == nil {
		return cfg, func() {}
	}
	slot := sc.Progress.AllocJob()
	cfg.OnProgress = func(steps int64) { sc.Progress.Update(slot, steps) }
	return cfg, func() { sc.Progress.MarkDone(slot) }
}

// timed compiles the sequential workload on a fresh Engine and times
// one execution of it by run.
func timed[T any](w *progs.Workload, sc Scale, run func(context.Context, *alchemist.Engine, *alchemist.Program, alchemist.RunConfig) (T, error)) (res T, d time.Duration, err error) {
	ctx, eng := context.Background(), sc.engine(1)
	prog, err := eng.Compile(ctx, w.Name+".mc", w.Source)
	if err != nil {
		return res, 0, err
	}
	cfg, done := sc.runConfig(inputFor(w, sc), w.MemWords, 0)
	defer done()
	start := time.Now()
	res, err = run(ctx, eng, prog, cfg)
	return res, time.Since(start), err
}

// RunNative executes the sequential workload without instrumentation and
// returns the result with its wall-clock time.
func RunNative(w *progs.Workload, sc Scale) (*vm.Result, time.Duration, error) {
	return timed(w, sc, func(ctx context.Context, eng *alchemist.Engine, prog *alchemist.Program, cfg alchemist.RunConfig) (*vm.Result, error) {
		return eng.Run(ctx, prog, cfg)
	})
}

// RunProfiled executes the workload under the profiler and returns the
// profile with its wall-clock time.
func RunProfiled(w *progs.Workload, sc Scale) (*core.Profile, time.Duration, error) {
	return timed(w, sc, func(ctx context.Context, eng *alchemist.Engine, prog *alchemist.Program, cfg alchemist.RunConfig) (*core.Profile, error) {
		prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: cfg})
		return prof, err
	})
}

// Profile profiles the workload with explicit options (ablations). It
// stays on core: the ablations set core.Options fields that
// alchemist.ProfileConfig does not expose.
func Profile(w *progs.Workload, sc Scale, opts core.Options) (*core.Profile, error) {
	cfg, done := sc.runConfig(inputFor(w, sc), w.MemWords, 0)
	defer done()
	prof, _, err := core.ProfileSource(w.Name+".mc", w.Source,
		vm.Config{Input: cfg.Input, MemWords: cfg.MemWords, OnProgress: cfg.OnProgress}, opts)
	return prof, err
}

// ---------- Table III ----------

// Table3Row measures one workload: LOC, static/dynamic construct counts,
// and native vs profiled wall-clock.
func Table3Row(w *progs.Workload, sc Scale) (report.Table3Row, error) {
	_, orig, err := RunNative(w, sc)
	if err != nil {
		return report.Table3Row{}, fmt.Errorf("%s native: %w", w.Name, err)
	}
	prof, profT, err := RunProfiled(w, sc)
	if err != nil {
		return report.Table3Row{}, fmt.Errorf("%s profiled: %w", w.Name, err)
	}
	return report.Table3Row{
		Benchmark:   w.Name,
		LOC:         w.LOC(),
		Static:      prof.StaticConstructs,
		Dynamic:     prof.DynamicConstructs,
		OrigSeconds: orig.Seconds(),
		ProfSeconds: profT.Seconds(),
	}, nil
}

// Table3 measures every workload.
func Table3(sc Scale) ([]report.Table3Row, error) {
	var rows []report.Table3Row
	for _, w := range progs.All() {
		row, err := Table3Row(w, sc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------- Construct selection helpers ----------

// LargestLoopIn returns the loop construct with the greatest Ttotal whose
// head lies inside the named function, or nil.
func LargestLoopIn(p *core.Profile, funcName string) *core.ConstructStat {
	for _, c := range p.Constructs { // sorted by Ttotal descending
		if c.Kind == indexing.KindLoop && c.FuncName == funcName {
			return c
		}
	}
	return nil
}

// LoopsIn returns every loop construct of the named function, by
// descending Ttotal.
func LoopsIn(p *core.Profile, funcName string) []*core.ConstructStat {
	var out []*core.ConstructStat
	for _, c := range p.Constructs {
		if c.Kind == indexing.KindLoop && c.FuncName == funcName {
			out = append(out, c)
		}
	}
	return out
}

// ---------- Fig. 6 ----------

// Fig6Result carries one Fig. 6 panel.
type Fig6Result struct {
	Title  string
	Points []report.Point
	// Removed lists labels excluded in a second-pass panel (Fig. 6(b)).
	Removed map[int]bool
}

// Fig6Gzip computes panels (a) and (b): the gzip profile, then the
// profile after removing the top loop construct and everything
// parallelized along with it.
func Fig6Gzip(sc Scale, top int) (a, b Fig6Result, _ *core.Profile, err error) {
	prof, _, err := RunProfiled(progs.Gzip(), sc)
	if err != nil {
		return a, b, nil, err
	}
	a = Fig6Result{Title: "gzip profile 1", Points: report.Fig6(prof, top, nil)}
	// C1 in the paper is the per-file compression loop (line 3404); here
	// it is the largest loop construct in main.
	c1 := LargestLoopIn(prof, "main")
	if c1 == nil {
		return a, b, prof, fmt.Errorf("gzip: no loop construct found")
	}
	removed := report.RemoveParallelized(prof, c1.Label)
	b = Fig6Result{
		Title:   "gzip profile 2 (after removing C1 and co-parallelized constructs)",
		Points:  report.Fig6(prof, top, removed),
		Removed: removed,
	}
	return a, b, prof, nil
}

// Fig6Parser computes panel (c).
func Fig6Parser(sc Scale, top int) (Fig6Result, *core.Profile, error) {
	prof, _, err := RunProfiled(progs.Parser(), sc)
	if err != nil {
		return Fig6Result{}, nil, err
	}
	return Fig6Result{Title: "197.parser profile", Points: report.Fig6(prof, top, nil)}, prof, nil
}

// Fig6Lisp computes panel (d).
func Fig6Lisp(sc Scale, top int) (Fig6Result, *core.Profile, error) {
	prof, _, err := RunProfiled(progs.Lisp(), sc)
	if err != nil {
		return Fig6Result{}, nil, err
	}
	return Fig6Result{Title: "130.lisp profile", Points: report.Fig6(prof, top, nil)}, prof, nil
}

// ---------- Table IV ----------

// Table4 profiles the four §IV.B.2 programs and reports the conflict
// counts at the constructs that were actually parallelized.
func Table4(sc Scale) ([]report.Table4Row, error) {
	var rows []report.Table4Row

	// bzip2: the file loop in main and the block loop in compressStream.
	bz, _, err := RunProfiled(progs.Bzip2(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(bz, "main"); c != nil {
		rows = append(rows, report.Table4For("bzip2", bz, c))
	}
	if c := LargestLoopIn(bz, "compressStream"); c != nil {
		rows = append(rows, report.Table4For("bzip2", bz, c))
	}

	// ogg: the file loop in main.
	og, _, err := RunProfiled(progs.Ogg(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(og, "main"); c != nil {
		rows = append(rows, report.Table4For("ogg", og, c))
	}

	// aes: the encryption loop in main.
	ae, _, err := RunProfiled(progs.AES(), sc)
	if err != nil {
		return nil, err
	}
	if c := aesMainLoop(ae); c != nil {
		rows = append(rows, report.Table4For("aes", ae, c))
	}

	// par2: the block loop in process_data and the file loop in
	// open_source_files.
	p2, _, err := RunProfiled(progs.Par2(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(p2, "process_data"); c != nil {
		rows = append(rows, report.Table4For("par2", p2, c))
	}
	if c := LargestLoopIn(p2, "open_source_files"); c != nil {
		rows = append(rows, report.Table4For("par2", p2, c))
	}
	return rows, nil
}

// aesMainLoop returns the word loop over the input in aes's main: the
// largest loop in main that is not the input-reading loop (the paper's
// "sixth largest construct").
func aesMainLoop(p *core.Profile) *core.ConstructStat {
	loops := LoopsIn(p, "main")
	var best *core.ConstructStat
	for _, l := range loops {
		// The encryption loop carries WAW/WAR edges (on ivec/ecount); the
		// input copy loop does not.
		if l.CountEdges(core.WAW)+l.CountEdges(core.WAR) > 0 {
			if best == nil || l.Ttotal > best.Ttotal {
				best = l
			}
		}
	}
	if best == nil && len(loops) > 0 {
		best = loops[0]
	}
	return best
}

// ---------- Table V ----------

// Table5Workers is the virtual worker count for Table V, matching the
// paper's 4-thread configurations on the 4-core Opteron.
const Table5Workers = 4

// Table5Bench compares one workload's sequential program against its
// spawn/sync variant under the VM's deterministic virtual-time parallel
// simulation: the speedup is the ratio of instruction-count makespans on
// Table5Workers virtual workers. Wall-clock of both runs is recorded for
// reference (on a multi-core host the Parallel goroutine mode can be
// timed instead; the simulation keeps the experiment reproducible on any
// machine).
func Table5Bench(w *progs.Workload, sc Scale, runs int) (report.Table5Row, error) {
	return Table5BenchCtx(context.Background(), sc.engine(1), w, sc, runs)
}

// Table5BenchCtx is Table5Bench on eng under a context: each program is
// compiled once and run runs times, keeping the fastest wall-clock.
// Cancellation aborts the in-flight VM run within one step-check window.
func Table5BenchCtx(ctx context.Context, eng *alchemist.Engine, w *progs.Workload, sc Scale, runs int) (report.Table5Row, error) {
	if !w.HasParallel() {
		return report.Table5Row{}, fmt.Errorf("%s has no parallel variant", w.Name)
	}
	if runs <= 0 {
		runs = 1
	}
	input := inputFor(w, sc)
	measure := func(name, src string, workers int) (*vm.Result, time.Duration, error) {
		prog, err := eng.Compile(ctx, name, src)
		if err != nil {
			return nil, 0, err
		}
		var bestD time.Duration
		var res *vm.Result
		for r := 0; r < runs; r++ {
			cfg, done := sc.runConfig(input, w.MemWords, workers)
			start := time.Now()
			res, err = eng.Run(ctx, prog, cfg)
			d := time.Since(start)
			done()
			if err != nil {
				return nil, 0, err
			}
			if bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return res, bestD, nil
	}
	seqRes, seqD, err := measure(w.Name+".mc", w.Source, 0)
	if err != nil {
		return report.Table5Row{}, fmt.Errorf("%s sequential: %w", w.Name, err)
	}
	parRes, parD, err := measure(w.Name+"_par.mc", w.ParSource, Table5Workers)
	if err != nil {
		return report.Table5Row{}, fmt.Errorf("%s parallel: %w", w.Name, err)
	}
	return report.Table5Row{
		Benchmark:  w.Name,
		Workers:    Table5Workers,
		SeqSteps:   seqRes.VirtualSteps,
		ParSteps:   parRes.VirtualSteps,
		SeqSeconds: seqD.Seconds(),
		ParSeconds: parD.Seconds(),
	}, nil
}

// Table5 measures every workload that has a parallel variant (bzip2, ogg,
// par2, aes — the paper's Table V set).
func Table5(sc Scale, runs int) ([]report.Table5Row, error) {
	return Table5Ctx(context.Background(), sc, runs, 1)
}

// Table5Ctx measures the Table V workloads with up to jobs VM runs in
// flight at once, preserving the fixed row order. Concurrent jobs only
// skew the wall-clock columns, not the instruction-count speedups
// (VirtualSteps is deterministic), so jobs > 1 trades timing fidelity
// for latency.
func Table5Ctx(ctx context.Context, sc Scale, runs, jobs int) ([]report.Table5Row, error) {
	workloads := []*progs.Workload{progs.Bzip2(), progs.Ogg(), progs.Par2(), progs.AES()}
	if jobs < 1 {
		jobs = 1
	}
	// The first failure cancels the sibling benchmarks (each aborts
	// within one VM step-check window) instead of letting them run to
	// completion on doomed work.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rows := make([]report.Table5Row, len(workloads))
	errs := make([]error, len(workloads))
	// Each benchmark is one unit on an Engine with jobs worker slots, so
	// at most jobs VM runs are in flight at once, and with one slot a
	// benchmark's timed runs never overlap another's.
	eng := sc.engine(jobs)
	var wg sync.WaitGroup
	for i, w := range workloads {
		wg.Add(1)
		eng.Submit(ctx, func(ctx context.Context) {
			defer wg.Done()
			rows[i], errs[i] = Table5BenchCtx(ctx, eng, w, sc, runs)
			if errs[i] != nil {
				cancel()
			}
		})
	}
	wg.Wait()
	// Report the first genuine failure, not a secondary cancellation it
	// caused in a sibling.
	var first error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
		if err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return rows, nil
}
