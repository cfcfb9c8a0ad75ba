package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"alchemist/client"
)

func doKeyed(t *testing.T, method, url, key, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-Api-Key", key)
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

// streamEvents replays a finished job's SSE stream, optionally resuming
// with a Last-Event-ID header, and parses the events.
func streamEvents(t *testing.T, base, id, lastEventID string) []client.Event {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status = %d", resp.StatusCode)
	}
	return parseSSE(t, resp.Body)
}

func errCode(t *testing.T, body string) string {
	t.Helper()
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("not an error envelope: %v\n%s", err, body)
	}
	return env.Error.Code
}

func TestAuthUnknownKeyRejected(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.APIKeys = map[string]string{"key-alpha": "alpha"}
	})
	resp, body := doKeyed(t, http.MethodGet, ts.URL+"/v1/jobs", "bogus", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401\n%s", resp.StatusCode, body)
	}
	if c := errCode(t, body); c != CodeUnauthorized {
		t.Fatalf("code = %q, want %s", c, CodeUnauthorized)
	}
	if s.sm.authFailures.Value() != 1 {
		t.Fatalf("auth failure counter = %d, want 1", s.sm.authFailures.Value())
	}
	// A known key works; so does no key at all (anonymous is still a
	// client, just a shared one).
	resp, body = doKeyed(t, http.MethodGet, ts.URL+"/v1/jobs", "key-alpha", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known key: status = %d\n%s", resp.StatusCode, body)
	}
	resp, body = doKeyed(t, http.MethodGet, ts.URL+"/v1/jobs", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous: status = %d\n%s", resp.StatusCode, body)
	}
}

func TestRateLimit429WithHonestRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.RatePerSec = 1
		o.RateBurst = 2
	})
	// The rate limit guards the work-creating endpoints; read-only
	// endpoints stay unmetered.
	compileBody := fmt.Sprintf(`{"name":"t.mc","source":%q}`, tinySrc)
	limited := 0
	var lastBody string
	var lastResp *http.Response
	for i := 0; i < 6; i++ {
		resp, body := doKeyed(t, http.MethodPost, ts.URL+"/v1/compile", "", compileBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			limited++
			lastBody, lastResp = body, resp
		}
	}
	if limited == 0 {
		t.Fatal("burst of 6 against burst-2 bucket was never rate limited")
	}
	if c := errCode(t, lastBody); c != CodeRateLimited {
		t.Fatalf("code = %q, want %s", c, CodeRateLimited)
	}
	// Honest hints: the header is whole seconds >= 1, the body carries
	// the precise wait, and both are at most one token's accrual time.
	secs, err := strconv.Atoi(lastResp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", lastResp.Header.Get("Retry-After"))
	}
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal([]byte(lastBody), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RetryAfterMS < 1 || env.Error.RetryAfterMS > 1100 {
		t.Fatalf("retry_after_ms = %d, want (0, 1100] for a 1 rps bucket", env.Error.RetryAfterMS)
	}
	if s.sm.rateLimited.Value() != int64(limited) {
		t.Fatalf("rate-limited counter = %d, want %d", s.sm.rateLimited.Value(), limited)
	}

	// Buckets are per client: a different key has its own tokens.
	s.adm.keys = map[string]string{"key-a": "a", "key-b": "b"}
	resp, body := doKeyed(t, http.MethodPost, ts.URL+"/v1/compile", "key-b", compileBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh client: status = %d\n%s", resp.StatusCode, body)
	}
}

// TestGreedyClientCannotStarveOthers is the headline quota property: one
// client saturating its own concurrency quota gets quota_exceeded, while
// a second API key is still admitted within its quota.
func TestGreedyClientCannotStarveOthers(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.APIKeys = map[string]string{"key-greedy": "greedy", "key-polite": "polite"}
		o.ClientQuota = 2
		o.QueueDepth = 16
	})

	submit := func(key string) (*http.Response, string) {
		return doKeyed(t, http.MethodPost, ts.URL+"/v1/jobs", key,
			fmt.Sprintf(`{"kind":"run","name":"q","source":%q,"timeout_ms":30000}`, foreverSrc))
	}

	// The greedy client fills its quota of 2...
	for i := 0; i < 2; i++ {
		resp, body := submit("key-greedy")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("greedy submit %d: status = %d\n%s", i, resp.StatusCode, body)
		}
	}
	// ...and its third unit is refused with quota_exceeded + Retry-After.
	resp, body := submit("key-greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if c := errCode(t, body); c != CodeQuotaExceeded {
		t.Fatalf("code = %q, want %s", c, CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota rejection carries no Retry-After")
	}
	if s.sm.quotaRejects.Value() != 1 {
		t.Fatalf("quota-reject counter = %d, want 1", s.sm.quotaRejects.Value())
	}

	// The polite client is untouched: the shared queue still has room
	// and its own quota is empty.
	resp, body = submit("key-polite")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("polite submit: status = %d, want 202 (greedy client starved it)\n%s", resp.StatusCode, body)
	}

	// Finishing greedy work frees its quota: cancel every greedy job.
	respL, bodyL := doKeyed(t, http.MethodGet, ts.URL+"/v1/jobs", "key-greedy", "")
	if respL.StatusCode != http.StatusOK {
		t.Fatalf("list: %d\n%s", respL.StatusCode, bodyL)
	}
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(bodyL), &list); err != nil {
		t.Fatal(err)
	}
	for _, j := range list.Jobs {
		doKeyed(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, "key-greedy", "")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = submit("key-greedy")
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota never freed after cancellations: %d\n%s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDeadlineShedding(t *testing.T) {
	s, ts := newTestServer(t, func(o *Options) {
		o.ShedDeadlines = true
		o.QueueDepth = 8
	})
	// Feed the estimator directly: pretend admitted work takes 10s, and
	// occupy enough queue slots that the estimate dwarfs a 1s deadline.
	s.adm.durMu.Lock()
	s.adm.avgSec = 10
	s.adm.durMu.Unlock()
	for i := 0; i < 4; i++ {
		if _, ok := s.tryAdmit(); !ok {
			t.Fatal("could not occupy queue slot")
		}
	}

	resp, body := doKeyed(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		fmt.Sprintf(`{"kind":"run","name":"q","source":%q,"timeout_ms":1000}`, tinySrc))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 shed\n%s", resp.StatusCode, body)
	}
	if c := errCode(t, body); c != CodeQueueSaturated {
		t.Fatalf("code = %q, want %s", c, CodeQueueSaturated)
	}
	if !strings.Contains(body, "deadline infeasible") {
		t.Fatalf("body does not explain the shed: %s", body)
	}
	if s.sm.sheds.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.sm.sheds.Value())
	}
	// A deadline the estimate can meet is admitted.
	resp, body = doKeyed(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		fmt.Sprintf(`{"kind":"run","name":"q","source":%q,"timeout_ms":600000}`, tinySrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("long-deadline submit: status = %d, want 202\n%s", resp.StatusCode, body)
	}
}

func TestSSEResumeWithLastEventID(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","name":"loop","source":%q,"inputs":[[2000]]}`, loopSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if fin := waitState(t, ts.URL, st.ID); fin.State != client.JobSucceeded {
		t.Fatalf("job finished %s, want succeeded", fin.State)
	}

	// Full replay first, to learn the event count.
	full := streamEvents(t, ts.URL, st.ID, "")
	if len(full) < 3 {
		t.Fatalf("only %d events; need a few to resume within", len(full))
	}
	// Resume after event 1: exactly the suffix comes back.
	suffix := streamEvents(t, ts.URL, st.ID, "1")
	if len(suffix) != len(full)-2 {
		t.Fatalf("resumed stream has %d events, want %d", len(suffix), len(full)-2)
	}
	if suffix[0].Seq != 2 {
		t.Fatalf("resumed stream starts at seq %d, want 2", suffix[0].Seq)
	}
	if s.sm.sseResumed.Value() != 1 {
		t.Fatalf("resume counter = %d, want 1", s.sm.sseResumed.Value())
	}

	// Resuming past the end of a finished log ends immediately, empty.
	past := streamEvents(t, ts.URL, st.ID, strconv.Itoa(full[len(full)-1].Seq))
	if len(past) != 0 {
		t.Fatalf("resume past end returned %d events, want 0", len(past))
	}

	// A malformed Last-Event-ID is a 400, not a silent full replay.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "not-a-seq")
	respBad, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer respBad.Body.Close()
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: status = %d, want 400", respBad.StatusCode)
	}
}

func TestSSEKeepAliveComments(t *testing.T) {
	_, ts := newTestServer(t, func(o *Options) {
		o.SSEKeepAlive = 50 * time.Millisecond
		// Coalesce progress reports into (effectively) never, so the
		// stream goes idle after the initial state events.
		o.ProgressInterval = time.Hour
	})
	// A job that never finishes on its own keeps the stream idle after
	// its initial events, forcing keepalives.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","name":"forever","source":%q,"timeout_ms":5000}`, foreverSrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	respS, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer respS.Body.Close()
	buf := make([]byte, 4096)
	var seen strings.Builder
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		n, err := respS.Body.Read(buf)
		seen.Write(buf[:n])
		if strings.Count(seen.String(), ": keepalive") >= 2 {
			break
		}
		if err != nil {
			break
		}
	}
	if got := strings.Count(seen.String(), ": keepalive"); got < 2 {
		t.Fatalf("saw %d keepalive comments on an idle stream, want >= 2\n%s", got, seen.String())
	}
}

// TestDrainRetryAfterHint pins satellite behavior: a submission refused
// because the server is draining is answered 503 draining with both the
// Retry-After header and the retry_after_ms envelope hint.
func TestDrainRetryAfterHint(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	resp, body := doKeyed(t, http.MethodPost, ts.URL+"/v1/jobs", "",
		fmt.Sprintf(`{"kind":"run","name":"t","source":%q}`, tinySrc))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", resp.StatusCode, body)
	}
	if c := errCode(t, body); c != CodeDraining {
		t.Fatalf("code = %q, want %s", c, CodeDraining)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 carries no Retry-After header")
	}
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.RetryAfterMS < 1 {
		t.Fatalf("retry_after_ms = %d, want >= 1", env.Error.RetryAfterMS)
	}
}
