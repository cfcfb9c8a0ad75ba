package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/journal"
)

// newDurableServer builds a journal-backed server over dir. The caller
// owns shutdown (tests restart servers over the same dir).
func newDurableServer(t *testing.T, dir string, mod func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		Engine:           alchemist.NewEngine(alchemist.WithWorkers(2)),
		ProgressInterval: -1,
		DataDir:          dir,
		Fsync:            journal.SyncNone, // process-crash tests: page cache is enough
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// crash simulates a hard kill: journal appends stop (as if the process
// had already died) and then everything is torn down. State journaled
// before the crash point is all a restart gets to see.
func crash(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	s.wal.disabled.Store(true)
	ts.Close()
	s.Close()
}

func TestRecoveryFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	resp, body := post(t, ts1.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, ts1.URL, st.ID)
	if done.State != client.JobSucceeded {
		t.Fatalf("job state = %s, want succeeded (%s)", done.State, done.Error)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()

	rec := s2.Recovery()
	if !rec.Durable || rec.Jobs != 1 || rec.Interrupted != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery stats = %+v, want durable, 1 job, clean tail", rec)
	}
	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered job get = %d: %s", resp.StatusCode, body)
	}
	var got client.JobStatus
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != client.JobSucceeded {
		t.Errorf("recovered state = %s, want succeeded", got.State)
	}
	if got.Result == nil {
		t.Error("recovered job lost its result payload")
	}
	if got.StartedAt == nil || got.FinishedAt == nil {
		t.Error("recovered job lost its timestamps")
	}

	// The event log came back too: SSE replays it and, the job being
	// terminal, ends the stream.
	resp, body = doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st.ID+"/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered events = %d", resp.StatusCode)
	}
	for _, want := range []string{`"state":"queued"`, `"state":"running"`, `"state":"succeeded"`} {
		if !strings.Contains(body, want) {
			t.Errorf("recovered event stream missing %s:\n%s", want, body)
		}
	}

	// Health reports durability.
	_, body = doJSON(t, http.MethodGet, ts2.URL+"/healthz", "")
	if !strings.Contains(body, `"durable": true`) {
		t.Errorf("healthz does not report durable: %s", body)
	}
}

func TestRecoveryInterruptsCrashedJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	resp, body := post(t, ts1.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":30000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, ts1.URL, st.ID)
	crash(t, s1, ts1)

	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()

	rec := s2.Recovery()
	if rec.Jobs != 1 || rec.Interrupted != 1 {
		t.Fatalf("recovery stats = %+v, want 1 job, 1 interrupted", rec)
	}
	got := waitState(t, ts2.URL, st.ID)
	if got.State != client.JobInterrupted {
		t.Errorf("crashed job state = %s, want interrupted", got.State)
	}
	if !strings.Contains(got.Error, "interrupted") {
		t.Errorf("interrupted job error = %q", got.Error)
	}
	if v := s2.sm.jobsInterrupted.Value(); v != 1 {
		t.Errorf("jobsInterrupted = %d, want 1", v)
	}

	// A third restart changes nothing: the interrupted outcome was
	// journaled, so the job is terminal on arrival.
	ts2.Close()
	s2.Close()
	s3, ts3 := newDurableServer(t, dir, nil)
	defer func() { ts3.Close(); s3.Close() }()
	if rec := s3.Recovery(); rec.Interrupted != 0 || rec.Jobs != 1 {
		t.Errorf("second recovery stats = %+v, want terminal job, nothing interrupted", rec)
	}
}

func TestRecoveryRequeuesCrashedJob(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	// The job can only end by deadline; keep it short so the requeued
	// run terminates quickly.
	resp, body := post(t, ts1.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":1500}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, ts1.URL, st.ID)
	crash(t, s1, ts1)

	s2, ts2 := newDurableServer(t, dir, func(o *Options) {
		o.RequeueOnRecovery = true
	})
	defer func() { ts2.Close(); s2.Close() }()

	rec := s2.Recovery()
	if rec.Jobs != 1 || rec.Requeued != 1 || rec.Interrupted != 0 {
		t.Fatalf("recovery stats = %+v, want 1 job requeued", rec)
	}
	got := waitState(t, ts2.URL, st.ID)
	if got.State != client.JobFailed {
		t.Errorf("requeued forever-job state = %s, want failed (deadline)", got.State)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Errorf("requeued job error = %q, want a deadline failure", got.Error)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)
	resp, body := post(t, ts1.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st client.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts1.URL, st.ID)
	ts1.Close()
	s1.Close()

	// Tear the newest segment: a half-written frame, as a kill mid-write
	// would leave. Recovery must keep everything before it.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()
	rec := s2.Recovery()
	if rec.TruncatedBytes == 0 {
		t.Error("torn tail was not reported as truncated")
	}
	if rec.Jobs != 1 {
		t.Fatalf("recovery stats = %+v, want the intact job back", rec)
	}
	resp, _ = doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("job lost to torn tail: get = %d", resp.StatusCode)
	}
}

func TestIdempotencyKeyReplay(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	submit := func(url, key string) (*http.Response, client.JobStatus) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st client.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("bad job body: %v: %s", err, b)
		}
		return resp, st
	}

	resp, first := submit(ts1.URL, "key-1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	if first.IdempotentReplay {
		t.Error("first submit marked as replay")
	}
	waitState(t, ts1.URL, first.ID)

	resp, replay := submit(ts1.URL, "key-1")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replay submit = %d, want 200", resp.StatusCode)
	}
	if replay.ID != first.ID || !replay.IdempotentReplay {
		t.Errorf("replay = {id:%s replay:%v}, want original job %s", replay.ID, replay.IdempotentReplay, first.ID)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+first.ID {
		t.Errorf("replay Location = %q", loc)
	}
	if v := s1.sm.idemReplays.Value(); v != 1 {
		t.Errorf("idemReplays = %d, want 1", v)
	}

	resp, other := submit(ts1.URL, "key-2")
	if resp.StatusCode != http.StatusAccepted || other.ID == first.ID {
		t.Errorf("distinct key reused a job: %d id=%s", resp.StatusCode, other.ID)
	}
	waitState(t, ts1.URL, other.ID)
	ts1.Close()
	s1.Close()

	// Keys are journaled: a replayed submission after restart still
	// lands on the original job.
	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()
	resp, again := submit(ts2.URL, "key-1")
	if resp.StatusCode != http.StatusOK || again.ID != first.ID || !again.IdempotentReplay {
		t.Errorf("post-restart replay = %d {id:%s replay:%v}, want 200 on job %s",
			resp.StatusCode, again.ID, again.IdempotentReplay, first.ID)
	}
}

func TestJobListPagination(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var ids []string
	for i := 0; i < 5; i++ {
		resp, body := post(t, ts.URL+"/v1/jobs",
			fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job create = %d: %s", resp.StatusCode, body)
		}
		var st client.JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		waitState(t, ts.URL, st.ID)
		ids = append(ids, st.ID)
	}

	list := func(query string) client.JobList {
		t.Helper()
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs"+query, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s = %d: %s", query, resp.StatusCode, body)
		}
		var out client.JobList
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Walk the full listing two jobs at a time; pages must partition the
	// set without duplicates and in a stable order.
	var walked []string
	token := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("pagination did not terminate")
		}
		q := "?limit=2"
		if token != "" {
			q += "&page_token=" + token
		}
		out := list(q)
		if len(out.Jobs) > 2 {
			t.Fatalf("page holds %d jobs, limit 2", len(out.Jobs))
		}
		for _, st := range out.Jobs {
			walked = append(walked, st.ID)
		}
		if out.NextPageToken == "" {
			break
		}
		token = out.NextPageToken
	}
	if len(walked) != len(ids) {
		t.Fatalf("walked %d jobs, created %d", len(walked), len(ids))
	}
	seen := map[string]bool{}
	for _, id := range walked {
		if seen[id] {
			t.Errorf("job %s appeared on two pages", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("job %s missing from the walked listing", id)
		}
	}
	// One unpaged listing agrees with the walk order.
	full := list("")
	if full.NextPageToken != "" {
		t.Error("full listing carries a next_page_token")
	}
	for i, st := range full.Jobs {
		if walked[i] != st.ID {
			t.Fatalf("walk order diverges at %d: %s vs %s", i, walked[i], st.ID)
		}
	}

	// State filtering.
	if got := len(list("?state=succeeded").Jobs); got != 5 {
		t.Errorf("state=succeeded returned %d jobs, want 5", got)
	}
	if got := len(list("?state=running").Jobs); got != 0 {
		t.Errorf("state=running returned %d jobs, want 0", got)
	}
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, base, id string) {
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
		if st.State == client.JobRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s before running could be observed", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never started running")
}
