// Command perfbench is the repository's benchmark. It runs one workload
// against the real Engine (and, for the service workloads, the real HTTP
// server on a loopback listener) in this one process, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is a traced run and reports the per-layer metrics instead. See
// README.md for the workloads and a glossary of every metric.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"alchemist/internal/obs"
)

// setupReps is how many times each run builds its whole stack; setup_s
// is the median, and the last stack built is the one measured.
const setupReps = 9

// workload is one traffic mix.
type workload interface {
	// setup builds the stack (engine, server, inputs) from scratch.
	setup() error
	// close tears the stack down, stopping every goroutine it started.
	close()
	// run drives the workload for about d and reports what it measured.
	// With a non-nil log it records a span around every call into the
	// program.
	run(d time.Duration, log *spanLog) *phase
	// layers adds the per-layer metrics only this workload can measure
	// (paired server overhead, job span timelines) after a traced run.
	layers(log *spanLog, out metrics, traced *phase)
	// sources are the programs the workload compiles, for the compile
	// probe.
	sources() []source
	// verify checks every output the runs produced and returns one line
	// per mismatch.
	verify() []string
	// engineRegistry exposes the engine's metrics registry.
	engineRegistry() *obs.Registry
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	attempted, failed int
	done              []opRec   // completed ops
	lag               []float64 // open loop only: how late each send was, ms
	elapsed           time.Duration
	errs              []string
	// clock holds the process CPU time at each window boundary.
	clock []cpuSample

	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	// stealPct is the share of the host's CPU time that the hypervisor
	// gave to other guests during the phase: a validity check, since
	// every timing stretches with it.
	stealPct float64
}

// opRec is one completed op and the VM work it did, split into
// profiled and uninstrumented execution.
type opRec struct {
	end       time.Time
	lat       time.Duration
	profSteps int64
	profTime  time.Duration
	runSteps  int64
	runTime   time.Duration
}

type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

func sampleCPU() cpuSample { return cpuSample{time.Now(), cpuTime()} }

// sampleEvery records the CPU clock every interval until stop is
// closed, then returns the samples on the result channel.
func sampleEvery(interval time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	res := make(chan []cpuSample, 1)
	go func() {
		samples := []cpuSample{sampleCPU()}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				samples = append(samples, sampleCPU())
			case <-stop:
				res <- samples
				return
			}
		}
	}()
	return res
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 20 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) ops() int { return len(p.done) }

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, o := range p.done {
		out[i] = ms(o.lat)
	}
	return out
}

// window aggregates the ops that completed between two CPU samples.
type window struct {
	dur, cpu            time.Duration
	ops                 int
	profSteps, runSteps int64
	profTime, runTime   time.Duration
}

func (p *phase) windows() []window {
	var ws []window
	for i := 1; i < len(p.clock); i++ {
		a, b := p.clock[i-1], p.clock[i]
		w := window{dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu}
		for _, o := range p.done {
			if o.end.After(a.at) && !o.end.After(b.at) {
				w.ops++
				w.profSteps += o.profSteps
				w.profTime += o.profTime
				w.runSteps += o.runSteps
				w.runTime += o.runTime
			}
		}
		ws = append(ws, w)
	}
	return ws
}

// windowMedian is the median over windows of f, skipping windows where
// f has no value.
func windowMedian(ws []window, f func(w window) (float64, bool)) float64 {
	var xs []float64
	for _, w := range ws {
		if v, ok := f(w); ok {
			xs = append(xs, v)
		}
	}
	return Median(xs)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuStat is the steal and total tick counts of /proc/stat's cpu line.
type cpuStat struct{ steal, total int64 }

// readSteal reads the host CPU counters; zero where they are not
// available.
func readSteal() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		var v int64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuStat{}
		}
		st.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			st.steal = v
		}
	}
	return st
}

func (s cpuStat) pctSince(prev cpuStat) float64 {
	if s.total <= prev.total {
		return 0
	}
	return 100 * float64(s.steal-prev.steal) / float64(s.total-prev.total)
}

// measure runs one phase and charges it the heap allocation and garbage
// collection it caused.
func measure(w workload, d time.Duration, log *spanLog) *phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := readSteal()
	p := w.run(d, log)
	p.stealPct = readSteal().pctSince(s0)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

// endToEnd fills the end-to-end metrics of one phase. Rates and per-op
// costs are medians over the phase's windows: on a shared machine a few
// slow seconds then move a run's figure less than they move its mean.
func endToEnd(p *phase, setupS, rssMB float64) metrics {
	m := metrics{}
	// The tail percentile is printed with the latency line; it is not a
	// bounded metric (see README.md, run-to-run noise).
	t := Summarize(p.latencies())
	ws := p.windows()
	m.set("setup_s", setupS, "s")
	m.set("latency_p50_ms", t.P50, "ms")
	m.set("ops_per_s", windowMedian(ws, func(w window) (float64, bool) {
		return float64(w.ops) / w.dur.Seconds(), true
	}), "1/s")
	m.set("profile_mips", windowMedian(ws, func(w window) (float64, bool) {
		return mips(w.profSteps, w.profTime)
	}), "Minstr/s")
	m.set("run_mips", windowMedian(ws, func(w window) (float64, bool) {
		return mips(w.runSteps, w.runTime)
	}), "Minstr/s")
	m.set("cpu_ms_per_op", windowMedian(ws, func(w window) (float64, bool) {
		return ms(w.cpu) / float64(w.ops), w.ops > 0
	}), "ms")
	m.set("alloc_mb_per_op", float64(p.alloc)/1e6/float64(max(p.ops(), 1)), "MB")
	m.set("peak_rss_mb", rssMB, "MB")
	return m
}

func mips(steps int64, d time.Duration) (float64, bool) {
	if d <= 0 {
		return 0, false
	}
	return float64(steps) / d.Seconds() / 1e6, true
}

// workloads are the benchmark's workloads; --workload all runs each.
var workloads = []string{"paper-suite", "small-sync", "async-jobs"}

func newWorkload(name string, seed uint64, d time.Duration) (workload, error) {
	switch name {
	case "paper-suite":
		return newPaperSuite(seed), nil
	case "small-sync":
		return newSmallSync(seed, d), nil
	case "async-jobs":
		return newAsyncJobs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-suite, small-sync, async-jobs or all)", name)
}

func main() {
	name := flag.String("workload", "", "paper-suite, small-sync, async-jobs, or all to run each in turn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	record := flag.Bool("record-digests", false, "print the WriteJSON digests of the reference profiles as JSON and exit")
	flag.Parse()
	if *record {
		if err := recordDigests(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	d := time.Duration(*seconds) * time.Second
	// With several workloads the result line prefixes each metric with
	// its workload.
	total := &result{Correct: true, Metrics: metrics{}}
	for _, n := range names {
		w, err := newWorkload(n, *seed, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		res, err := runBench(w, n, *seed, d, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[n+"/"+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !total.Correct {
		os.Exit(1)
	}
}

func runBench(w workload, name string, seed uint64, d time.Duration, traced bool) (*result, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d\n",
		name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	setupS := Median(setups)
	fmt.Printf("  %-22s %.6f s (median of %d set-ups)\n", "setup_s", setupS, setupReps)

	res := &result{}
	var m metrics
	if !traced {
		p := measure(w, d, nil)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m = endToEnd(p, setupS, rss)
		res.Attempted, res.Failed = p.attempted, p.failed
		printPhase(p)
	} else {
		var err error
		m, err = tracedRun(w, name, seed, d, res)
		if err != nil {
			return nil, err
		}
	}
	bad := w.verify()
	for _, e := range bad {
		fmt.Println("  MISMATCH", e)
	}
	// A wrong output counts as a failed op.
	res.Failed += len(bad)
	res.Attempted = max(res.Attempted, res.Failed, 1)
	res.Correct = res.Failed == 0
	fmt.Printf("  %-22s %.6f (%d failed or wrong of %d attempted)\n", "error_rate",
		ErrorRate(res.Failed, res.Attempted), res.Failed, res.Attempted)
	res.Metrics = m
	printMetrics(m)
	return res, nil
}

func printPhase(p *phase) {
	fmt.Printf("  %-22s %s ms\n", "latency", Summarize(p.latencies()))
	if len(p.lag) > 0 {
		fmt.Printf("  %-22s %s ms\n", "gen.lag", Summarize(p.lag))
	}
	fmt.Printf("  %-22s %d ops in %.3f s, %d windows\n", "ops", p.ops(), p.elapsed.Seconds(), len(p.windows()))
	fmt.Printf("  %-22s %.2f%% of host CPU time\n", "gen.steal", p.stealPct)
	for _, e := range p.errs {
		fmt.Println("  FAILED", e)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(m metrics) {
	for _, n := range sortedKeys(m) {
		fmt.Printf("  %-32s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}
