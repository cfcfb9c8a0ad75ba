package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/core"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/server"
)

// asyncCallers is the closed loop's client count: at most 2 goroutines
// and connections, matching the 2 Engine workers.
const asyncCallers = 2

// jobSpec is one async job: kind and the scales of one paper workload.
type jobSpec struct {
	kind     string
	workload *progs.Workload
	scales   []int
}

func (j jobSpec) key() string { return fmt.Sprintf("%s %s %v", j.kind, j.workload.Name, j.scales) }

// asyncJobs is the closed loop of 2 SDK callers using
// client.SubmitAndWait against a server with a durable journal. Each job
// profiles, advises on or runs 2-4 mid scales of a seeded paper
// workload. Only this traffic fans batches out over the worker pool,
// merges profiles, writes the journal and streams SSE.
type asyncJobs struct {
	seed uint64

	eng  *alchemist.Engine
	srv  *server.Server
	dir  string
	cl   *client.Client
	deck []jobSpec
	next int // next deck entry to submit, shared by the callers

	mu     sync.Mutex
	bodies map[string][]byte // first result per key
	hashes map[string][sha256.Size]byte
	jobIDs []string // jobs of the last phase, for their traces
}

func newAsyncJobs(seed uint64) *asyncJobs { return &asyncJobs{seed: seed} }

// asyncKinds are the job kinds, equally often.
var asyncKinds = []string{"profile", "advise", "run"}

// makeDeck returns blocks of 24 jobs: each of the 8 workloads once per
// kind, shuffled, with the number of scales cycling 2, 3, 4 across
// blocks, so every block weighs workloads, kinds and sizes alike.
func makeDeck(seed uint64, blocks int) []jobSpec {
	r := rand.New(rand.NewPCG(seed, 0xa51c))
	wls := progs.All()
	var deck []jobSpec
	for b := 0; b < blocks; b++ {
		var block []jobSpec
		for wi, w := range wls {
			for ki, kind := range asyncKinds {
				k := 2 + (wi+ki+b)%3
				mid := midScales[w.Name]
				pick := r.Perm(len(mid))[:k]
				slices.Sort(pick)
				scales := make([]int, k)
				for i, p := range pick {
					scales[i] = mid[p]
				}
				block = append(block, jobSpec{kind: kind, workload: w, scales: scales})
			}
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		deck = append(deck, block...)
	}
	return deck
}

func (a *asyncJobs) setup() error {
	a.eng = alchemist.NewEngine(alchemist.WithWorkers(2))
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "journal-")
	if err != nil {
		return err
	}
	a.dir = dir
	srv, err := server.New(server.Options{Engine: a.eng, DataDir: dir})
	if err != nil {
		return err
	}
	a.srv = srv
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	a.cl = client.New(srv.URL(), client.WithHTTPClient(newHTTPClient()), client.WithRandSeed(int64(a.seed)))
	a.deck, a.next = makeDeck(a.seed, 100), 0
	a.bodies = map[string][]byte{}
	a.hashes = map[string][sha256.Size]byte{}
	return nil
}

func (a *asyncJobs) close() {
	if a.srv != nil {
		a.srv.Close()
		a.srv = nil
	}
	if a.dir != "" {
		// A journal left behind only takes disk under .bench_build.
		_ = os.RemoveAll(a.dir)
		a.dir = ""
	}
}

func (a *asyncJobs) engineRegistry() *obs.Registry { return a.eng.Metrics() }

func (a *asyncJobs) sources() []source { return paperSources() }

func (a *asyncJobs) take() (jobSpec, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next >= len(a.deck) {
		return jobSpec{}, false
	}
	a.next++
	return a.deck[a.next-1], true
}

type asyncDone struct {
	end   time.Time
	lat   time.Duration
	kind  string
	steps int64
	err   error
}

// run keeps both callers busy until d has passed; latency is submit to
// terminal state.
func (a *asyncJobs) run(d time.Duration, log *spanLog) *phase {
	start := time.Now()
	var mu sync.Mutex
	var done []asyncDone
	a.jobIDs = nil
	stop := make(chan struct{})
	clock := sampleEvery(windowLen, stop)
	var wg sync.WaitGroup
	for c := 0; c < asyncCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				j, ok := a.take()
				if !ok {
					return
				}
				dn, id := a.do(j, log)
				mu.Lock()
				done = append(done, dn)
				if id != "" {
					a.jobIDs = append(a.jobIDs, id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	p := &phase{attempted: len(done), elapsed: time.Since(start), clock: <-clock}
	for i, dn := range done {
		if dn.err != nil {
			p.fail("job %d: %v", i, dn.err)
			continue
		}
		op := opRec{end: dn.end, lat: dn.lat}
		if dn.kind == "run" {
			op.runSteps, op.runTime = dn.steps, dn.lat
		} else {
			op.profSteps, op.profTime = dn.steps, dn.lat
		}
		p.done = append(p.done, op)
	}
	return p
}

func (a *asyncJobs) do(j jobSpec, log *spanLog) (asyncDone, string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := client.JobRequest{Kind: j.kind, SourceSpec: client.SourceSpec{Workload: j.workload.Name, Scales: j.scales}}
	id := log.begin("client.SubmitAndWait", j.key(), -1)
	t0 := time.Now()
	st, err := a.cl.SubmitAndWait(ctx, req)
	end := time.Now()
	dn := asyncDone{end: end, lat: end.Sub(t0), kind: j.kind, err: err}
	log.end(id)
	if err != nil {
		return dn, ""
	}
	if st.State != client.JobSucceeded {
		dn.err = fmt.Errorf("%s: job %s ended %s: %s", j.key(), st.ID, st.State, st.Error)
		return dn, st.ID
	}
	dn.steps = st.TotalSteps
	h := sha256.Sum256(st.Result)
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.hashes[j.key()]; !ok {
		a.hashes[j.key()], a.bodies[j.key()] = h, st.Result
	} else if prev != h {
		dn.err = fmt.Errorf("%s: result differs from an earlier job with the same request", j.key())
	}
	return dn, st.ID
}

func (a *asyncJobs) verify() []string {
	o := newOracle()
	var bad []string
	checked := map[string]bool{}
	for _, j := range a.deck[:a.next] {
		body, ok := a.bodies[j.key()]
		if !ok || checked[j.key()] {
			continue
		}
		checked[j.key()] = true
		bad = append(bad, a.verifyJob(o, j, body)...)
	}
	return bad
}

// verifyJob checks one job result against the library path: per-scale
// profiles (whose digests must match the recorded ones), merged in job
// order as ProfileBatch promises, and per-scale runs checked against the
// interpreter.
func (a *asyncJobs) verifyJob(o *oracle, j jobSpec, body []byte) []string {
	var bad []string
	var profs []*core.Profile
	var runs []*alchemist.RunResult
	for _, sc := range j.scales {
		p, r, e := o.checkWorkload(j.workload, sc)
		bad = append(bad, e...)
		if p == nil {
			return bad
		}
		profs, runs = append(profs, p), append(runs, r)
	}
	key := j.key()
	var resp struct {
		server.ProfileResponse
		Reports json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return append(bad, fmt.Sprintf("%s: decoding result: %v", key, err))
	}
	if j.kind != "advise" {
		if len(resp.Runs) != len(runs) {
			return append(bad, fmt.Sprintf("%s: %d runs in result, want %d", key, len(resp.Runs), len(runs)))
		}
		for i, r := range resp.Runs {
			if e := checkRun(fmt.Sprintf("%s scale %d", key, j.scales[i]), r.Ret, r.Output, r.OutputLen, runs[i].Ret, runs[i].Output); e != "" {
				bad = append(bad, e)
			}
		}
	}
	if j.kind == "run" {
		return bad
	}
	merged, err := core.Merge(profs...)
	if err != nil {
		return append(bad, fmt.Sprintf("%s: merge: %v", key, err))
	}
	if j.kind == "profile" {
		if got, want := digestJSONProfile(resp.Profile), digestProfile(merged); got != want {
			bad = append(bad, fmt.Sprintf("%s: ProfileBatch digest %.12s, library Merge %.12s", key, got, want))
		}
		return bad
	}
	want, err := json.Marshal(expectedAdvice(merged))
	if err != nil {
		return append(bad, err.Error())
	}
	var got []server.AdviceJSON
	if err := json.Unmarshal(resp.Reports, &got); err != nil {
		return append(bad, fmt.Sprintf("%s: decoding reports: %v", key, err))
	}
	if g, _ := json.Marshal(got); string(g) != string(want) {
		bad = append(bad, fmt.Sprintf("%s: advice differs from the library's", key))
	}
	return bad
}

// expectedAdvice is the advise endpoint's default top-8 guidance,
// computed from a library-path profile.
func expectedAdvice(p *core.Profile) []server.AdviceJSON {
	var out []server.AdviceJSON
	for _, rep := range alchemist.Advise(p) {
		if len(out) >= 8 {
			break
		}
		aj := server.AdviceJSON{
			Label:          rep.Construct.Label,
			Name:           report.ConstructName(rep.Construct),
			Kind:           rep.Construct.Kind.String(),
			Line:           rep.Construct.Pos.Line,
			Func:           rep.Construct.FuncName,
			Parallelizable: rep.Parallelizable,
			Score:          rep.Score,
		}
		for _, ad := range rep.Advices {
			aj.Advice = append(aj.Advice, server.AdviceItem{Action: ad.Action.String(), Text: ad.Text})
		}
		out = append(out, aj)
	}
	return out
}

// spanNames are the job timeline spans reported as span.<name>_ms.
var spanNames = map[string]string{
	"admit": "span.admit_ms", "queue": "span.queue_ms", "compile": "span.compile_ms",
	"profile": "span.profile_ms", "journal.append": "span.journal_append_ms", "sse": "span.sse_ms",
}

// layers reads the span timeline of every job of the traced phase from
// GET /v1/jobs/{id}/trace, and measures the server's overhead over a
// direct Engine batch of the same work.
func (a *asyncJobs) layers(log *spanLog, out metrics, _ *phase) {
	ctx := context.Background()
	perJob := map[string][]float64{}
	for _, id := range a.jobIDs {
		tr, err := a.cl.JobTrace(ctx, id)
		if err != nil {
			continue
		}
		self := map[string]time.Duration{}
		for _, s := range tr.Spans {
			var kids []Interval
			for _, c := range tr.Spans {
				if c.ParentID == s.SpanID {
					kids = append(kids, Interval{c.Start, c.End})
				}
			}
			self[s.Name] += SelfTime(Interval{s.Start, s.End}, kids)
			log.add("job."+s.Name, id, -1, s.Start, s.End)
		}
		for name, d := range self {
			perJob[name] = append(perJob[name], ms(d))
		}
	}
	for name, metric := range spanNames {
		out.set(metric, Median(perJob[name]), "ms")
	}
	out.set("server.overhead_ms_p50", a.pairedOverhead(log), "ms")
}

// pairedOverhead submits single-scale profile jobs one at a time and
// repeats each directly as an Engine.ProfileBatch, returning the median
// difference: what admission, the journal, SSE and the SDK add.
func (a *asyncJobs) pairedOverhead(log *spanLog) float64 {
	ctx := context.Background()
	var diffs []float64
	for rep := 0; rep < 3; rep++ {
		for _, w := range progs.All() {
			sc := midScales[w.Name][0]
			id := log.begin("paired.SubmitAndWait", w.Name, -1)
			t0 := time.Now()
			st, err := a.cl.SubmitAndWait(ctx, client.JobRequest{Kind: "profile",
				SourceSpec: client.SourceSpec{Workload: w.Name, Scales: []int{sc}}})
			httpT := time.Since(t0)
			log.end(id)
			if err != nil || st.State != client.JobSucceeded {
				continue
			}
			id = log.begin("paired.Engine.ProfileBatch", w.Name, -1)
			t0 = time.Now()
			prog, err := a.eng.Compile(ctx, w.Name+".mc", w.Source)
			if err == nil {
				cfg := &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{MemWords: w.MemWords}}
				_, _, err = a.eng.ProfileBatch(ctx, prog, []alchemist.ProfileJob{{Input: w.InputFor(sc), Config: cfg}})
			}
			directT := time.Since(t0)
			log.end(id)
			if err == nil {
				diffs = append(diffs, ms(httpT-directT))
			}
		}
	}
	return Median(diffs)
}
