package alchemist_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alchemist"
	"alchemist/internal/obs"
)

// counter reads a registry counter by name without creating noise: the
// engine registered all of its metrics at construction, so the lookup
// always finds an existing instrument.
func counter(r *obs.Registry, name string) int64 {
	return r.Counter(name, "").Value()
}

// TestEngineSingleflight: a thundering herd on one cold source costs one
// compile; everyone else hits the cache or coalesces onto the in-flight
// compile. The invariant compiles + hits + coalesced == lookups holds
// regardless of scheduling.
func TestEngineSingleflight(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	const n = 16

	start := make(chan struct{})
	progs := make([]*alchemist.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := eng.Compile(ctx, "herd.mc", `int main() { return 42; }`)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("compile %d returned a different program", i)
		}
	}
	st := eng.CacheStats()
	compiles := counter(eng.Metrics(), "alchemist_engine_compiles_total")
	if st.Hits+st.Misses != n {
		t.Errorf("hits(%d) + misses(%d) != %d lookups", st.Hits, st.Misses, n)
	}
	if compiles+st.Hits+st.Coalesced != n {
		t.Errorf("compiles(%d) + hits(%d) + coalesced(%d) != %d lookups",
			compiles, st.Hits, st.Coalesced, n)
	}
	if compiles != 1 {
		t.Errorf("compiles = %d, want exactly 1 for a singleflighted herd", compiles)
	}
	if got := counter(eng.Metrics(), "alchemist_engine_singleflight_coalesced_total"); got != st.Coalesced {
		t.Errorf("coalesced metric = %d, CacheStats.Coalesced = %d", got, st.Coalesced)
	}
}

// bigSrc synthesizes a program whose compiled footprint exceeds
// DefaultProgramCost instructions, so it charges more than one cache
// cost unit.
func bigSrc() string {
	var sb strings.Builder
	sb.WriteString("int main() {\n  int s = 0;\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "  s = s * 3 + %d;\n", i)
	}
	sb.WriteString("  out(s);\n  return 0;\n}\n")
	return sb.String()
}

// TestEngineCostEviction: cache pressure is charged by program footprint,
// not entry count — one big program displaces proportionally more.
func TestEngineCostEviction(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(2))

	if _, err := eng.Compile(ctx, "big.mc", bigSrc()); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Cost < 2 {
		t.Fatalf("big program cost = %d units, want >= 2 (footprint too small to exercise the cost model)", st.Cost)
	}
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after big insert = %+v, want Entries=1 Evictions=0", st)
	}

	// A one-unit program pushes the total over budget; the big program is
	// the LRU entry and goes first.
	if _, err := eng.Compile(ctx, "small.mc", `int main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Evictions != 1 || st.Entries != 1 || st.Cost != 1 {
		t.Errorf("stats after small insert = %+v, want Evictions=1 Entries=1 Cost=1", st)
	}
}

// TestEngineOversizedProgramCachesAlone: a program larger than the whole
// budget still caches (alone) instead of thrashing on every lookup.
func TestEngineOversizedProgramCachesAlone(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(1))

	p1, err := eng.Compile(ctx, "big.mc", bigSrc())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Entries != 1 || st.Evictions != 0 || st.Cost < 2 {
		t.Fatalf("stats = %+v, want the oversized program cached alone", st)
	}
	p2, err := eng.Compile(ctx, "big.mc", bigSrc())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("oversized program was not served from the cache")
	}
}

// TestEngineMetricsEndpoint is the acceptance golden: after one
// engine-driven profile, /metrics serves nonzero VM step and cache
// counters in the Prometheus text format.
func TestEngineMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{
		RunConfig: alchemist.RunConfig{Input: []int64{1, 2, 3}},
	}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(eng.Metrics()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	metric := func(name string) int64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s missing from /metrics:\n%s", name, body)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}
	if steps := metric("alchemist_vm_steps_total"); steps <= 0 {
		t.Errorf("alchemist_vm_steps_total = %d, want > 0", steps)
	}
	if runs := metric("alchemist_vm_runs_total"); runs != 1 {
		t.Errorf("alchemist_vm_runs_total = %d, want 1", runs)
	}
	if misses := metric("alchemist_engine_cache_misses_total"); misses != 1 {
		t.Errorf("alchemist_engine_cache_misses_total = %d, want 1", misses)
	}
	metric("alchemist_engine_cache_hits_total") // present, zero is fine
	if loads := metric("alchemist_profile_shadow_loads_total"); loads <= 0 {
		t.Errorf("alchemist_profile_shadow_loads_total = %d, want > 0", loads)
	}
}

// TestEngineScratchPerWorkerSlot: each worker slot keeps its profiling
// scratch. Once both slots of a WithWorkers(2) Engine have profiled a
// program, further batches of it create no construct nodes and no
// shadow pages, and every job runs on a pool of exactly the default
// preallocation.
func TestEngineScratchPerWorkerSlot(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	input := batchInputs()[0]

	// Warm both slots: two jobs that wait for each other inside their
	// runs, so they hold both scratches at once.
	var both sync.WaitGroup
	both.Add(2)
	met := make(chan struct{})
	go func() { both.Wait(); close(met) }()
	warm := make([]alchemist.ProfileJob, 2)
	for i := range warm {
		var once sync.Once
		warm[i] = alchemist.ProfileJob{Input: input, OnProgress: func(int64) {
			once.Do(func() {
				both.Done()
				select {
				case <-met:
				case <-time.After(10 * time.Second):
					t.Error("warm-up jobs never ran at the same time")
				}
			})
		}}
	}
	if _, _, err := eng.ProfileBatch(ctx, prog, warm); err != nil {
		t.Fatal(err)
	}

	reg := eng.Metrics()
	created := counter(reg, "alchemist_profile_pool_allocated_total")
	if created != 2<<16 {
		t.Errorf("warm-up created %d pool nodes, want two preallocations (%d)", created, 2<<16)
	}
	jobs := make([]alchemist.ProfileJob, 6)
	for i := range jobs {
		jobs[i] = alchemist.ProfileJob{Input: input}
	}
	for round := 0; round < 3; round++ {
		_, results, err := eng.ProfileBatch(ctx, prog, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if pages := r.Profile.Shadow.PagesAllocated; pages != 0 {
				t.Errorf("round %d job %d: %d shadow pages allocated", round, r.Job, pages)
			}
			if n := r.Profile.Pool.Allocated; n != 1<<16 {
				t.Errorf("round %d job %d: pool of %d nodes, want %d", round, r.Job, n, 1<<16)
			}
		}
	}
	if got := counter(reg, "alchemist_profile_pool_allocated_total"); got != created {
		t.Errorf("warm batches created %d pool nodes, want 0", got-created)
	}
	if got := counter(reg, "alchemist_engine_jobs_total"); got != 2+3*int64(len(jobs)) {
		t.Errorf("jobs = %d, want %d", got, 2+3*len(jobs))
	}
}

// TestPoolCounterCountsCreatedNodes: alchemist_profile_pool_allocated_total
// counts the nodes a profile creates. The first profile on a worker slot
// builds its pool; the second profile of the same small program reuses
// it and adds nothing.
func TestPoolCounterCountsCreatedNodes(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: batchInputs()[0]}}
	if _, _, err := eng.Profile(ctx, prog, cfg); err != nil {
		t.Fatal(err)
	}
	first := counter(eng.Metrics(), "alchemist_profile_pool_allocated_total")
	if first < 1<<16 {
		t.Errorf("first profile counted %d nodes, want at least the %d it preallocated", first, 1<<16)
	}
	if _, _, err := eng.Profile(ctx, prog, cfg); err != nil {
		t.Fatal(err)
	}
	if got := counter(eng.Metrics(), "alchemist_profile_pool_allocated_total"); got != first {
		t.Errorf("second profile added %d nodes, want 0", got-first)
	}
}

// TestProfileJobOnProgress: per-job progress reports are monotonic and
// end with the job's exact final step count.
func TestProfileJobOnProgress(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))
	// Long enough that every job crosses several check windows.
	src := `int main() { int s = 0; for (int i = 0; i < 30000; i++) { s += in(i % inlen()); } out(s); return 0; }`
	prog, err := eng.Compile(ctx, "prog.mc", src)
	if err != nil {
		t.Fatal(err)
	}

	const jobCount = 3
	var mu sync.Mutex
	reports := make([][]int64, jobCount)
	jobs := make([]alchemist.ProfileJob, jobCount)
	for i := range jobs {
		i := i
		jobs[i] = alchemist.ProfileJob{
			Input: []int64{int64(i), 5, 9},
			OnProgress: func(steps int64) {
				mu.Lock()
				reports[i] = append(reports[i], steps)
				mu.Unlock()
			},
		}
	}
	_, results, err := eng.ProfileBatch(ctx, prog, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(reports[i]) < 2 {
			t.Fatalf("job %d delivered %d reports, want >= 2", i, len(reports[i]))
		}
		for k := 1; k < len(reports[i]); k++ {
			if reports[i][k] < reports[i][k-1] {
				t.Errorf("job %d reports not monotonic: %v", i, reports[i])
				break
			}
		}
		if last := reports[i][len(reports[i])-1]; last != r.Run.Steps {
			t.Errorf("job %d final report = %d, want Run.Steps = %d", i, last, r.Run.Steps)
		}
	}
}

// TestProfileJobOnProgressCancel: cancelling mid-batch aborts the
// running job and fails queued jobs with context.Canceled.
func TestProfileJobOnProgressCancel(t *testing.T) {
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	src := `int main() { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } out(s); return 0; }`
	prog, err := eng.Compile(context.Background(), "long.mc", src)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Jobs start in arbitrary order, so every job cancels on its first
	// progress report: whichever runs first aborts itself mid-run, and
	// the queued jobs fail without starting.
	onFirst := func(int64) { cancel() }
	jobs := []alchemist.ProfileJob{
		{OnProgress: onFirst}, {OnProgress: onFirst}, {OnProgress: onFirst},
	}
	merged, results, err := eng.ProfileBatch(ctx, prog, jobs)
	if merged != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch = (%v, %v), want context.Canceled", merged, err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}
