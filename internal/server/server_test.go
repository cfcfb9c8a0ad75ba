package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alchemist"
	"alchemist/client"
)

const tinySrc = `int main() { return 7; }`

// loopSrc sums in(0) iterations; steps scale linearly with the input.
const loopSrc = `
int main() {
	int n = in(0);
	int s = 0;
	for (int i = 0; i < n; i++) {
		s += i;
	}
	out(s);
	return 0;
}
`

// foreverSrc runs effectively forever; only a deadline or cancellation
// stops it.
const foreverSrc = `
int main() {
	int s = 0;
	for (int i = 0; i < 1000000000; i++) {
		s += i;
	}
	return s % 2;
}
`

func newTestServer(t *testing.T, mod func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		Engine:           alchemist.NewEngine(alchemist.WithWorkers(2)),
		ProgressInterval: -1, // publish every progress report: deterministic streams
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	return doJSON(t, http.MethodPost, url, body)
}

// waitState polls the job until it reaches a terminal state.
func waitState(t *testing.T, base, id string) client.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get: %d %s", resp.StatusCode, body)
		}
		var st client.JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state in time")
	return client.JobStatus{}
}

func TestCompileGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/compile", `{"name":"t.mc","source":"int main() { return 7; }"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var cr client.CompileResponse
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Name != "t.mc" || cr.Functions != 1 || cr.Instructions <= 0 {
		t.Errorf("compile response = %+v", cr)
	}
}

// The error envelope is part of the API: exact golden matches on the
// {"error": {"code", "message"}} shape.
func TestErrorBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	golden := func(code, message string) string {
		return "{\n  \"error\": {\n    \"code\": \"" + code +
			"\",\n    \"message\": \"" + message + "\"\n  }\n}\n"
	}
	cases := []struct {
		name, method, path, body string
		status                   int
		want                     string
	}{
		{"empty spec", "POST", "/v1/profile", `{}`,
			http.StatusBadRequest,
			golden("bad_request", "request needs source or workload")},
		{"both sources", "POST", "/v1/profile", `{"source":"int main() { return 0; }","workload":"gzip"}`,
			http.StatusBadRequest,
			golden("bad_request", "request has both source and workload; pick one")},
		{"bad kind", "POST", "/v1/jobs", `{"kind":"bogus","source":"int main() { return 0; }"}`,
			http.StatusBadRequest,
			golden("bad_request", `unknown job kind \"bogus\" (want profile, advise, or run)`)},
		{"unknown job", "GET", "/v1/jobs/deadbeef", "",
			http.StatusNotFound,
			golden("job_not_found", `no such job \"deadbeef\"`)},
		{"unknown field", "POST", "/v1/compile", `{"sauce":"int main() {}"}`,
			http.StatusBadRequest,
			golden("bad_request", `bad request body: json: unknown field \"sauce\"`)},
		{"bad list state", "GET", "/v1/jobs?state=bogus", "",
			http.StatusBadRequest,
			golden("bad_request", `unknown state \"bogus\" (want queued, running, succeeded, failed, or interrupted)`)},
		{"bad page token", "GET", "/v1/jobs?page_token=@@@", "",
			http.StatusBadRequest,
			golden("bad_request", "invalid page_token")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if body != tc.want {
				t.Errorf("body = %q, want %q", body, tc.want)
			}
		})
	}
}

func TestProfileSync(t *testing.T) {
	s, ts := newTestServer(t, nil)
	req := fmt.Sprintf(`{"source":%q,"inputs":[[500],[1000]],"top":3}`, loopSrc)
	resp, body := post(t, ts.URL+"/v1/profile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Jobs != 2 || pr.Profile == nil || pr.Profile.TotalSteps == 0 {
		t.Errorf("profile response = %+v", pr)
	}
	if len(pr.Runs) != 2 || pr.Runs[0].Steps >= pr.Runs[1].Steps {
		t.Errorf("runs = %+v (second input is larger, must cost more steps)", pr.Runs)
	}
	if len(pr.Profile.Constructs) > 3 {
		t.Errorf("top=3 not applied: %d constructs", len(pr.Profile.Constructs))
	}
	// Both requests hit one shared engine: the second compile of the
	// same source must be a cache hit.
	post(t, ts.URL+"/v1/profile", req)
	if cs := s.eng.CacheStats(); cs.Hits < 1 {
		t.Errorf("cache stats = %+v, want a hit from the repeated source", cs)
	}
}

func TestAdviseSync(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/advise", `{"workload":"gzip","scales":[300],"top":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar client.AdviseResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Name != "gzip.mc" || len(ar.Reports) == 0 || len(ar.Reports) > 4 {
		t.Errorf("advise response: name=%q reports=%d", ar.Name, len(ar.Reports))
	}
	for _, rep := range ar.Reports {
		if rep.Name == "" || rep.Kind == "" {
			t.Errorf("incomplete report: %+v", rep)
		}
	}
}

func TestRunSync(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := fmt.Sprintf(`{"source":%q,"inputs":[[10],[100]]}`, loopSrc)
	resp, body := post(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var rr client.RunResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Runs) != 2 {
		t.Fatalf("runs = %+v", rr.Runs)
	}
	if rr.Runs[0].Output[0] != 45 || rr.Runs[1].Output[0] != 4950 {
		t.Errorf("outputs = %v / %v, want [45] / [4950]", rr.Runs[0].Output, rr.Runs[1].Output)
	}
}

func TestDeadlineMapsToGatewayTimeout(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := fmt.Sprintf(`{"source":%q,"timeout_ms":25}`, foreverSrc)
	resp, body := post(t, ts.URL+"/v1/profile", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, context.DeadlineExceeded.Error()) {
		t.Errorf("body %q does not surface context.DeadlineExceeded", body)
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.QueueDepth = 1
		o.RetryAfter = 3 * time.Second
	})
	// Occupy the single admission slot with a long async job.
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":30000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	// The queue is saturated: sync work must be refused, not queued.
	resp, body = post(t, ts.URL+"/v1/profile", `{"source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if !strings.Contains(body, "admission queue full") {
		t.Errorf("429 body: %s", body)
	}
	if !strings.Contains(body, `"code": "queue_saturated"`) ||
		!strings.Contains(body, `"retry_after_ms": 3000`) {
		t.Errorf("429 envelope missing code/retry_after_ms: %s", body)
	}
	// Async submissions are refused the same way.
	resp, _ = post(t, ts.URL+"/v1/jobs", `{"kind":"run","source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("job create under saturation = %d, want 429", resp.StatusCode)
	}
	if got := s.sm.rejects.Value(); got != 2 {
		t.Errorf("rejects counter = %d, want 2", got)
	}

	// Cancelling the hog frees the slot; the VM observes cancellation
	// within one step-check window.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	fin := waitState(t, ts.URL, st.ID)
	if fin.State != client.JobFailed || !strings.Contains(fin.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job state = %s err = %q", fin.State, fin.Error)
	}
	resp, body = post(t, ts.URL+"/v1/profile", `{"source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after cancel, profile = %d: %s", resp.StatusCode, body)
	}
}

// A fractional RetryAfter rounds the Retry-After header up, like every
// other retryable refusal, while retry_after_ms stays exact.
func TestBackpressure429RoundsRetryAfterUp(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.QueueDepth = 1
		o.RetryAfter = 1500 * time.Millisecond
	})
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":30000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	defer doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "")

	resp, body = post(t, ts.URL+"/v1/profile", `{"source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if !strings.Contains(body, "admission queue full (1 slots)") ||
		!strings.Contains(body, `"code": "queue_saturated"`) ||
		!strings.Contains(body, `"retry_after_ms": 1500`) {
		t.Errorf("429 envelope: %s", body)
	}
}

func TestAsyncJobLifecycleAndResult(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"profile","source":%q,"inputs":[[2000],[3000]],"top":2}`, loopSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != client.JobQueued && st.State != client.JobRunning {
		t.Errorf("initial state = %s", st.State)
	}
	fin := waitState(t, ts.URL, st.ID)
	if fin.State != client.JobSucceeded {
		t.Fatalf("state = %s err = %q", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.TotalSteps == 0 {
		t.Errorf("finished job missing result/progress: %+v", fin)
	}
	if len(fin.Progress) != 2 {
		t.Errorf("progress tracks %d batch jobs, want 2", len(fin.Progress))
	}
	for _, p := range fin.Progress {
		if !p.Done || p.Steps == 0 {
			t.Errorf("batch job %d progress = %+v, want done with steps", p.Job, p)
		}
	}
	// The list endpoint knows it too.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, st.ID) {
		t.Errorf("job list = %d: %s", resp.StatusCode, body)
	}
}

// TestQueuedJobWaitsForWorker: with the engine's only worker busy, a
// second job stays queued, with no running event, until the first
// job's unit releases the worker; then it runs to completion.
func TestQueuedJobWaitsForWorker(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.Engine = alchemist.NewEngine(alchemist.WithWorkers(1))
	})
	create := func(body string) client.JobStatus {
		t.Helper()
		resp, out := post(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("create = %d: %s", resp.StatusCode, out)
		}
		var st client.JobStatus
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	blocker := create(fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":30000}`, foreverSrc))
	waitRunning(t, ts.URL, blocker.ID)
	second := create(fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc))

	time.Sleep(200 * time.Millisecond)
	j := s.store.get(second.ID)
	j.mu.Lock()
	state, events := j.state, append([]client.Event(nil), j.events...)
	j.mu.Unlock()
	if state != client.JobQueued || len(events) != 1 || events[0].State != client.JobQueued {
		t.Fatalf("second job with the worker busy: state %s, events %+v; want queued only", state, events)
	}

	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, "")
	b := waitState(t, ts.URL, blocker.ID)
	got := waitState(t, ts.URL, second.ID)
	if got.State != client.JobSucceeded {
		t.Fatalf("second job %s (%s), want succeeded", got.State, got.Error)
	}
	if got.StartedAt == nil || got.StartedAt.Before(*b.FinishedAt) {
		t.Errorf("second job started at %v, before the blocker finished at %v", got.StartedAt, b.FinishedAt)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var states []client.JobState
	for _, ev := range j.events {
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	if fmt.Sprint(states) != fmt.Sprint([]client.JobState{client.JobQueued, client.JobRunning, client.JobSucceeded}) {
		t.Errorf("second job state events %v, want [queued running succeeded]", states)
	}
}

// parseSSE reads a full SSE stream into events.
func parseSSE(t *testing.T, r io.Reader) []client.Event {
	t.Helper()
	var out []client.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev client.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSSEEventOrdering(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"profile","source":%q,"inputs":[[20000]]}`, loopSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	// Attach immediately: the stream replays from seq 0 and ends after
	// the terminal event, regardless of how far the job has advanced.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type = %q", ct)
	}
	evs := parseSSE(t, sresp.Body)
	if len(evs) < 4 {
		t.Fatalf("only %d events; want queued, running, progress..., terminal", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d; replay must be gapless and ordered", i, ev.Seq)
		}
	}
	if evs[0].Type != "state" || evs[0].State != client.JobQueued {
		t.Errorf("first event = %+v, want state=queued", evs[0])
	}
	if evs[1].Type != "state" || evs[1].State != client.JobRunning {
		t.Errorf("second event = %+v, want state=running", evs[1])
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != client.JobSucceeded {
		t.Errorf("last event = %+v, want state=succeeded", last)
	}
	var prev int64 = -1
	progress := 0
	for _, ev := range evs[2 : len(evs)-1] {
		if ev.Type != "progress" {
			t.Errorf("mid-stream event %+v, want only progress between running and terminal", ev)
			continue
		}
		progress++
		if ev.Steps < prev {
			t.Errorf("progress went backwards: %d after %d", ev.Steps, prev)
		}
		prev = ev.Steps
	}
	if progress == 0 {
		t.Error("no progress events for a 20k-iteration profile")
	}
}

func TestGracefulShutdownDrainsJobs(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"inputs":[[400000]],"timeout_ms":60000}`, loopSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// New job submissions are refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = post(t, ts.URL+"/v1/jobs", `{"kind":"run","source":"int main() { return 0; }"}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job create during drain = %d, want 503", resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The in-flight job ran to completion, not cancellation.
	j := s.store.get(st.ID)
	if j == nil {
		t.Fatal("job vanished during drain")
	}
	if got := j.status(true); got.State != client.JobSucceeded {
		t.Errorf("drained job state = %s err = %q, want succeeded", got.State, got.Error)
	}
}

func TestShutdownAbortsOnExpiredContext(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":60000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired drain window: abort immediately
	if err := s.Shutdown(ctx); err == nil {
		t.Error("Shutdown with expired context should report the aborted drain")
	}
	j := s.store.get(st.ID)
	if got := j.status(false); got.State != client.JobFailed {
		t.Errorf("aborted job state = %s, want failed", got.State)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) { o.MaxBodyBytes = 256 })
	big := fmt.Sprintf(`{"source":%q}`, "int main() { return 0; } // "+strings.Repeat("x", 4096))
	resp, body := post(t, ts.URL+"/v1/profile", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "exceeds 256 bytes") {
		t.Errorf("413 body: %s", body)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.instrument("health", func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("body = %s", rec.Body.String())
	}
	if got := s.sm.panics.Value(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := s.sm.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %d after panic, want 0", got)
	}
}

func TestMetricsEndpointSurfacesServerMetrics(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) { o.QueueDepth = 1 })
	// One successful profile, then saturate for a reject.
	post(t, ts.URL+"/v1/profile", `{"source":"int main() { return 0; }"}`)
	resp, body := post(t, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":30000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	json.Unmarshal([]byte(body), &st)
	post(t, ts.URL+"/v1/profile", `{"source":"int main() { return 0; }"}`) // 429

	resp, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"alchemist_server_requests_total",
		"alchemist_server_queue_depth 1", // the async job holds its slot
		"alchemist_server_admission_rejects_total 1",
		"alchemist_server_request_seconds_profile_bucket",
		"alchemist_server_jobs_active 1",
		"alchemist_engine_compiles_total",
		"alchemist_process_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "")
	waitState(t, ts.URL, st.ID)
}

func TestHealthEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if !strings.Contains(body, `"status": "ok"`) || !strings.Contains(body, "gzip") {
		t.Errorf("healthz body: %s", body)
	}
}

func TestStartServesRealListener(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if s.URL() == "" {
		t.Fatal("no URL after Start")
	}
	resp, body := post(t, s.URL()+"/v1/compile", `{"source":"int main() { return 0; }"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("compile over real listener = %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

func TestJobStoreTTLAndCapacity(t *testing.T) {
	sm := newServerMetrics(alchemist.NewEngine().Metrics())
	store := newJobStore(time.Minute, 2, sm, nil)
	mk := func(succeed bool) *job {
		j := newJob("run", nil, "", nil)
		j.setRunning()
		if succeed {
			j.finish(nil, nil)
		}
		store.put(j)
		return j
	}
	a, b, c := mk(true), mk(true), mk(true)
	_ = b
	// Capacity 2: the oldest finished job is retired on overflow.
	store.sweep(time.Now())
	if store.get(a.id) != nil {
		t.Error("oldest finished job survived capacity sweep")
	}
	if store.get(c.id) == nil {
		t.Error("newest job was evicted")
	}
	// TTL: everything finished longer than ttl ago goes.
	store.sweep(time.Now().Add(2 * time.Minute))
	if got := len(store.list()); got != 0 {
		t.Errorf("%d jobs survive past TTL", got)
	}
	// Unfinished jobs are never retired.
	running := newJob("run", nil, "", nil)
	running.setRunning()
	store.put(running)
	store.sweep(time.Now().Add(time.Hour))
	if store.get(running.id) == nil {
		t.Error("running job was retired")
	}
	if sm.jobsRetired.Value() == 0 {
		t.Error("retirement counter untouched")
	}
}

func TestTimeoutClamp(t *testing.T) {
	s, _ := newTestServer(t, func(o *Options) {
		o.DefaultTimeout = time.Second
		o.MaxTimeout = 2 * time.Second
	})
	if d := s.timeoutFor(0); d != time.Second {
		t.Errorf("default timeout = %v", d)
	}
	if d := s.timeoutFor(500); d != 500*time.Millisecond {
		t.Errorf("explicit timeout = %v", d)
	}
	if d := s.timeoutFor(3_600_000); d != 2*time.Second {
		t.Errorf("clamped timeout = %v", d)
	}
}
