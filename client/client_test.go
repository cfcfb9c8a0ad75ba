package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// instantSleep makes the client's backoff schedule take zero wall time
// while still recording what it would have slept.
func instantSleep(c *Client, record *[]time.Duration) {
	var mu sync.Mutex
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*record = append(*record, d)
		mu.Unlock()
		return ctx.Err()
	}
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls int32
	var keys []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"draining","message":"draining","retry_after_ms":250}}`)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down","retry_after_ms":100}}`)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1","kind":"run","state":"queued"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, WithRandSeed(1))
	var slept []time.Duration
	instantSleep(c, &slept)

	st, err := c.SubmitJob(context.Background(), JobRequest{Kind: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("ID = %q, want job-1", st.ID)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Every retry must reuse the original idempotency key.
	if keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("idempotency keys not stable across retries: %q", keys)
	}
	// The server's hints are the backoff floor: 250ms then 100ms.
	if len(slept) != 2 || slept[0] < 250*time.Millisecond || slept[1] < 100*time.Millisecond {
		t.Fatalf("slept = %v, want floors [>=250ms >=100ms]", slept)
	}
}

func TestDoesNotRetryClientErrors(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_request","message":"no such workload"}}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.SubmitJob(context.Background(), JobRequest{Kind: "run"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "bad_request" {
		t.Fatalf("err = %v, want 400 bad_request APIError", err)
	}
	if ae.Temporary() {
		t.Fatal("400 must not be Temporary")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is not retryable)", calls)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"boom"}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(3, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want wrapped 500 APIError", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that is immediately closed: every dial is refused.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()

	c := New(ts.URL, WithRetry(2, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("err = %v, want giving-up error after connection failures", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
}

func TestAPIKeyHeaderAttached(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("X-Api-Key")
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithAPIKey("sekrit"))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "sekrit" {
		t.Fatalf("X-Api-Key = %q, want sekrit", got)
	}
}

func TestBackoffHonorsHintAsFloor(t *testing.T) {
	c := New("http://invalid", WithRandSeed(42), WithRetry(8, 10*time.Millisecond, 100*time.Millisecond))
	for attempt := 0; attempt < 8; attempt++ {
		if d := c.backoff(attempt, 777*time.Millisecond); d < 777*time.Millisecond {
			t.Fatalf("backoff(%d, 777ms) = %v, below the hint floor", attempt, d)
		}
		if d := c.backoff(attempt, 0); d > 100*time.Millisecond {
			t.Fatalf("backoff(%d, 0) = %v, above the cap", attempt, d)
		}
	}
}

func TestWaitJobPollFallback(t *testing.T) {
	// A server whose events endpoint always 404s (no SSE support), to
	// force WaitJob onto the polling path.
	var polls int32
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"job_not_found","message":"nope"}}`)
			return
		}
		mu.Lock()
		polls++
		n := polls
		mu.Unlock()
		if n < 3 {
			fmt.Fprint(w, `{"id":"j1","state":"running"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j1","state":"succeeded","result":{"ok":true}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(2, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	st, err := c.WaitJob(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobSucceeded {
		t.Fatalf("state = %s, want succeeded", st.State)
	}
	if polls < 3 {
		t.Fatalf("polls = %d, want >= 3", polls)
	}
}

func TestStreamEventsEscapesJobID(t *testing.T) {
	paths := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths <- r.URL.EscapedPath()
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"job_not_found","message":"nope"}}`)
	}))
	defer ts.Close()

	es := New(ts.URL).StreamEvents("a/b?c", 0)
	defer es.Close()
	if _, err := es.Next(context.Background()); err == nil {
		t.Fatal("Next against a 404 returned no error")
	}
	if got, want := <-paths, "/v1/jobs/a%2Fb%3Fc/events"; got != want {
		t.Errorf("events path = %q, want %q", got, want)
	}
}
