package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"alchemist"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/server"
)

const (
	// smallSyncRate is the offered load. The seed serves 130-150
	// profiles/s with 2 closed-loop callers on an idle host, but the
	// 32 MiB VM memory per request makes it bandwidth-bound, and when
	// other tenants contend for memory the host runs it more than 1.5x
	// slower. 40/s is about half of that contended capacity, so queueing
	// shows without a backlog that grows for the rest of the run.
	smallSyncRate = 40
	// hotSetSize programs are repeated; they stay in the compile cache.
	hotSetSize = 8
	// windowLen is the stretch over which the service workloads compute
	// each rate and per-op cost before taking the median.
	windowLen = 2 * time.Second
	// deck is the request mix per block of 20, shuffled per block: 10
	// hot profiles, 7 hot runs, 1 cold profile, 1 cold run (10% of the
	// sources are never seen before and miss the compile cache), and 1
	// aes profile at the smoke scale.
	blockSize = 20
)

type reqKind int

const (
	hotProfile reqKind = iota
	hotRun
	coldProfile
	coldRun
	aesProfile
)

var smallDeck = func() []reqKind {
	d := make([]reqKind, 0, blockSize)
	for i := 0; i < 10; i++ {
		d = append(d, hotProfile)
	}
	for i := 0; i < 7; i++ {
		d = append(d, hotRun)
	}
	return append(d, coldProfile, coldRun, aesProfile)
}()

// syncReq is one scheduled request: endpoint, body, and what the
// response must say.
type syncReq struct {
	path    string
	body    []byte
	key     string // identifies the expected response: same key, same bytes
	profile bool
	prog    *GenProgram // nil for aes
}

// smallSync is the open-loop HTTP workload: a seeded mix of sync
// POST /v1/profile and /v1/run requests of small generated programs plus
// some aes at the smoke scale, at a fixed offered rate over at most 2
// keep-alive connections. Fixed per-request costs dominate it.
type smallSync struct {
	seed uint64
	dur  time.Duration // total measured time of the run, all phases

	eng  *alchemist.Engine
	srv  *server.Server
	hc   *http.Client
	hot  []GenProgram
	reqs []syncReq
	next int // first request not yet sent

	mu sync.Mutex
	// bodies keeps the first response body per key; every later
	// response of the key must hash the same.
	bodies map[string][]byte
	hashes map[string][sha256.Size]byte
}

func newSmallSync(seed uint64, d time.Duration) *smallSync { return &smallSync{seed: seed, dur: d} }

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

func (s *smallSync) setup() error {
	s.eng = alchemist.NewEngine(alchemist.WithWorkers(2))
	srv, err := server.New(server.Options{Engine: s.eng})
	if err != nil {
		return err
	}
	s.srv = srv
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	s.hc = newHTTPClient()
	s.bodies = map[string][]byte{}
	s.hashes = map[string][sha256.Size]byte{}

	g := NewGenerator(s.seed)
	s.hot = g.HotSet(hotSetSize)
	// Enough requests for every phase of the run; phases take them in
	// turn, so a cold source stays cold.
	s.reqs, s.next = s.reqs[:0], 0
	deck := append([]reqKind(nil), smallDeck...)
	for len(s.reqs) < int(s.dur.Seconds()*smallSyncRate)+blockSize {
		Shuffle(g, deck)
		for _, k := range deck {
			s.reqs = append(s.reqs, s.request(g, k))
		}
	}
	// Warm the compile cache with the hot set and aes: caches fill
	// before timing, and cold sources still miss.
	warm := []server.CompileRequest{{Workload: "aes"}}
	for _, p := range s.hot {
		warm = append(warm, server.CompileRequest{Name: p.Name, Source: p.Source})
	}
	for _, c := range warm {
		if _, err := s.do(syncReq{path: "/v1/compile", body: mustJSON(c)}); err != nil {
			return err
		}
	}
	return nil
}

// mustJSON encodes a request body. The request types are plain structs
// of strings and integers, which always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// specFor is the inline-source spec of a generated program.
func specFor(p GenProgram) server.SourceSpec {
	spec := server.SourceSpec{Name: p.Name, Source: p.Source}
	if p.Input != nil {
		spec.Inputs = [][]int64{p.Input}
	}
	return spec
}

func (s *smallSync) request(g *Generator, k reqKind) syncReq {
	var p GenProgram
	switch k {
	case aesProfile:
		body := mustJSON(server.ProfileRequest{SourceSpec: server.SourceSpec{Workload: "aes", Scales: []int{smokeScale}}})
		return syncReq{path: "/v1/profile", body: body, key: "aes", profile: true}
	case hotProfile, hotRun:
		p = s.hot[g.r.IntN(len(s.hot))]
	default:
		p = g.Cold()
	}
	r := syncReq{prog: &p}
	if k == hotProfile || k == coldProfile {
		r.path, r.profile = "/v1/profile", true
		r.body = mustJSON(server.ProfileRequest{SourceSpec: specFor(p)})
	} else {
		r.path, r.body = "/v1/run", mustJSON(server.RunRequest{SourceSpec: specFor(p)})
	}
	r.key = fmt.Sprintf("%s %x", r.path, sha256.Sum256(r.body))
	return r
}

func (s *smallSync) close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}

func (s *smallSync) engineRegistry() *obs.Registry { return s.eng.Metrics() }

// sources are the hot set plus the first cold programs, each once.
func (s *smallSync) sources() []source {
	var out []source
	seen := map[string]bool{}
	for _, r := range s.reqs[:10*blockSize] {
		if r.prog != nil && !seen[r.prog.Source] {
			seen[r.prog.Source] = true
			out = append(out, source{name: r.prog.Name, src: r.prog.Source})
		}
	}
	return out
}

// do sends one request and returns the response body, or an error for a
// transport failure or a non-200 status.
func (s *smallSync) do(r syncReq) ([]byte, error) {
	resp, err := s.hc.Post(s.srv.URL()+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %.200s", r.path, resp.Status, b)
	}
	return b, nil
}

// keep stores the first body per key and checks every later one
// against it byte for byte.
func (s *smallSync) keep(key string, body []byte) bool {
	h := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.hashes[key]; ok {
		return prev == h
	}
	s.hashes[key] = h
	s.bodies[key] = body
	return true
}

type syncDone struct {
	end     time.Time
	lat     time.Duration
	profile bool
	steps   int64
	err     error
}

// run offers the requests due in [0, d) at smallSyncRate. Latency runs
// from each request's due time, so a stall that makes later requests
// wait for a connection is charged to them.
func (s *smallSync) run(d time.Duration, log *spanLog) *phase {
	reqs := s.reqs[s.next:]
	n := min(int(d.Seconds()*smallSyncRate), len(reqs))
	s.next += n
	interval := time.Second / smallSyncRate
	type item struct {
		i   int
		due time.Time
	}
	work := make(chan item, n) // sized to every send, so the dispatcher never blocks
	done := make([]syncDone, n)
	lag := make([]float64, n)

	stop := make(chan struct{})
	clock := sampleEvery(windowLen, stop)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				r := reqs[it.i]
				id := log.begin("http "+r.path, r.key, -1)
				body, err := s.do(r)
				end := time.Now()
				log.end(id)
				dn := syncDone{end: end, lat: OpenLoopLatency(it.due, end), profile: r.profile, err: err}
				if err == nil {
					if !s.keep(r.key, body) {
						dn.err = fmt.Errorf("%s: response differs from an earlier response to the same request", r.key)
					} else {
						dn.steps, dn.err = responseSteps(body)
					}
				}
				done[it.i] = dn
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lag[i] = ms(time.Since(due))
		work <- item{i, due}
	}
	close(work)
	wg.Wait()
	close(stop)

	p := &phase{attempted: n, lag: lag, elapsed: time.Since(start), clock: <-clock}
	for i, dn := range done {
		if dn.err != nil {
			p.fail("request %d: %v", i, dn.err)
			continue
		}
		op := opRec{end: dn.end, lat: dn.lat}
		if dn.profile {
			op.profSteps, op.profTime = dn.steps, dn.lat
		} else {
			op.runSteps, op.runTime = dn.steps, dn.lat
		}
		p.done = append(p.done, op)
	}
	return p
}

// responseSteps sums the VM steps a profile or run response reports.
func responseSteps(body []byte) (int64, error) {
	var r struct {
		Runs []server.RunSummary `json:"runs"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	var n int64
	for _, run := range r.Runs {
		n += run.Steps
	}
	return n, nil
}

func (s *smallSync) verify() []string {
	o := newOracle()
	var bad []string
	checked := map[string]bool{}
	for _, r := range s.reqs {
		body, ok := s.bodies[r.key]
		if !ok || checked[r.key] {
			continue
		}
		checked[r.key] = true
		var resp server.ProfileResponse // a run response is its Runs subset
		if err := json.Unmarshal(body, &resp); err != nil {
			bad = append(bad, fmt.Sprintf("%s: decoding response: %v", r.key, err))
			continue
		}
		if len(resp.Runs) != 1 {
			bad = append(bad, fmt.Sprintf("%s: %d runs in response, want 1", r.key, len(resp.Runs)))
			continue
		}
		run := resp.Runs[0]
		if r.prog == nil { // aes at the smoke scale
			w, err := progs.ByName("aes")
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			_, ref, e := o.checkWorkload(w, smokeScale)
			bad = append(bad, e...)
			if ref == nil {
				continue
			}
			if e := checkRun(r.key, run.Ret, run.Output, run.OutputLen, ref.Ret, ref.Output); e != "" {
				bad = append(bad, e)
			}
			if got, want := digestJSONProfile(resp.Profile), recordedDigests[digestKey(w, smokeScale)]; got != want {
				bad = append(bad, fmt.Sprintf("%s: HTTP profile digest %.12s, recorded %.12s", r.key, got, want))
			}
			continue
		}
		p := r.prog
		if e := checkRun(r.key+" vs generator", run.Ret, run.Output, run.OutputLen, p.Ret, p.Output); e != "" {
			bad = append(bad, e)
		}
		src := source{key: p.Source + fmt.Sprint(p.Input), name: p.Name, src: p.Source, input: p.Input}
		ref, err := o.interp(src)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: interp: %v", r.key, err))
		} else if e := checkRun(r.key+" vs interp", run.Ret, run.Output, run.OutputLen, ref.Ret, ref.Output); e != "" {
			bad = append(bad, e)
		}
		if !r.profile {
			continue
		}
		lib, _, err := o.profile(src)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: library profile: %v", r.key, err))
		} else if got, want := digestJSONProfile(resp.Profile), digestProfile(lib); got != want {
			bad = append(bad, fmt.Sprintf("%s: HTTP profile digest %.12s, library %.12s", r.key, got, want))
		}
	}
	return bad
}

// layers measures the server's own overhead: each hot program is sent
// over HTTP and then profiled directly on the Engine with the same
// input, one call at a time, and the median difference is what the
// HTTP stack, JSON and admission add.
func (s *smallSync) layers(log *spanLog, out metrics, _ *phase) {
	ctx := context.Background()
	var diffs []float64
	for rep := 0; rep < 12; rep++ {
		for _, p := range s.hot {
			r := syncReq{path: "/v1/profile", body: mustJSON(server.ProfileRequest{SourceSpec: specFor(p)})}
			id := log.begin("paired.http", p.Name, -1)
			t0 := time.Now()
			_, err := s.do(r) // the response was checked in the measured run
			httpT := time.Since(t0)
			log.end(id)
			if err != nil {
				continue
			}

			id = log.begin("paired.engine", p.Name, -1)
			t0 = time.Now()
			prog, err := s.eng.Compile(ctx, p.Name, p.Source)
			if err == nil {
				_, _, err = s.eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: p.Input}})
			}
			directT := time.Since(t0)
			log.end(id)
			if err == nil {
				diffs = append(diffs, ms(httpT-directT))
			}
		}
	}
	out.set("server.overhead_ms_p50", Median(diffs), "ms")
}
