package client_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/server"
)

// These tests drive the SDK against a real server. They live in an
// external test package because internal/server imports client for the
// wire types.

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

func newRealServer(t *testing.T, mod func(*server.Options)) *httptest.Server {
	t.Helper()
	opts := server.Options{
		Engine:           alchemist.NewEngine(alchemist.WithWorkers(2)),
		ProgressInterval: -1,
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func TestSubmitAndWaitAgainstRealServer(t *testing.T) {
	ts := newRealServer(t, nil)
	c := client.New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitAndWait(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{1000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.JobSucceeded {
		t.Fatalf("state = %s (err %q), want succeeded", st.State, st.Error)
	}
	if len(st.Result) == 0 {
		t.Fatal("terminal status has no result payload")
	}
	var res client.RunResponse
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 1 || len(res.Runs) != 1 || res.Runs[0].Output[0] != 499500 {
		t.Fatalf("result = %+v, want one run with output 499500", res)
	}
}

func TestStreamEventsOrderedAndTerminates(t *testing.T) {
	ts := newRealServer(t, nil)
	c := client.New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{5000}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	es := c.StreamEvents(st.ID, 0)
	defer es.Close()
	want := 0
	sawTerminal := false
	for {
		ev, err := es.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("event seq = %d, want %d (gap or duplicate)", ev.Seq, want)
		}
		want++
		if ev.Terminal() {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal event")
	}
	if want == 0 {
		t.Fatal("stream delivered no events")
	}
	// After EOF the stream stays EOF.
	if _, err := es.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("post-terminal Next = %v, want io.EOF", err)
	}
}

func TestStreamEventsResumeFromSeq(t *testing.T) {
	ts := newRealServer(t, nil)
	c := client.New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitAndWait(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{1000}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Resume from seq 1: event 0 must not be replayed to us.
	es := c.StreamEvents(st.ID, 1)
	defer es.Close()
	first, err := es.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 {
		t.Fatalf("resumed stream first seq = %d, want 1", first.Seq)
	}
}

// strictDecode decodes data into out, failing on any field out does not
// declare.
func strictDecode(t *testing.T, what string, data []byte, out any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("%s: decoding %s into %T: %v", what, data, out, err)
	}
}

// call issues one raw request, checks the status, and returns the body.
func call(t *testing.T, base, method, path string, in any, hdr map[string]string, wantStatus int) []byte {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, wantStatus, data)
	}
	return data
}

// TestWireContract drives one real server through every v1 endpoint
// and decodes each body into its client type with unknown fields
// disallowed: a field the server sends that the SDK does not declare
// fails here, including in the two shapes the server builds from its
// own types (the profile response and the trace spans).
func TestWireContract(t *testing.T) {
	base := newRealServer(t, nil).URL

	var comp client.CompileResponse
	strictDecode(t, "compile", call(t, base, "POST", "/v1/compile",
		client.CompileRequest{Name: "loop.mc", Source: loopSrc}, nil, http.StatusOK), &comp)
	if comp.Name != "loop.mc" || comp.Functions != 1 || comp.Instructions == 0 {
		t.Errorf("compile = %+v", comp)
	}

	var prof client.ProfileResponse
	strictDecode(t, "profile", call(t, base, "POST", "/v1/profile", client.ProfileRequest{
		SourceSpec: client.SourceSpec{Source: loopSrc, Inputs: [][]int64{{100}, {200}}}, Top: 2,
	}, nil, http.StatusOK), &prof)
	if prof.Jobs != 2 || len(prof.Runs) != 2 || len(prof.Profile) == 0 {
		t.Errorf("profile = %+v", prof)
	}

	var adv client.AdviseResponse
	strictDecode(t, "advise", call(t, base, "POST", "/v1/advise", client.ProfileRequest{
		SourceSpec: client.SourceSpec{Workload: "gzip", Scales: []int{300}}, Top: 2,
	}, nil, http.StatusOK), &adv)
	if adv.Name != "gzip.mc" || len(adv.Reports) == 0 {
		t.Errorf("advise = %+v", adv)
	}

	var run client.RunResponse
	strictDecode(t, "run", call(t, base, "POST", "/v1/run", client.RunRequest{
		SourceSpec: client.SourceSpec{Source: loopSrc, Inputs: [][]int64{{10}}},
	}, nil, http.StatusOK), &run)
	if len(run.Runs) != 1 || run.Runs[0].OutputLen != 1 || run.Runs[0].Output[0] != 45 {
		t.Errorf("run = %+v", run)
	}

	jobReq := client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Source: loopSrc, Inputs: [][]int64{{1000}}},
	}
	idem := map[string]string{"Idempotency-Key": "contract-1"}
	var created, replayed client.JobStatus
	strictDecode(t, "job create", call(t, base, "POST", "/v1/jobs", jobReq, idem, http.StatusAccepted), &created)
	strictDecode(t, "job replay", call(t, base, "POST", "/v1/jobs", jobReq, idem, http.StatusOK), &replayed)
	if replayed.ID != created.ID || !replayed.IdempotentReplay {
		t.Errorf("replay = %+v, want idempotent replay of %s", replayed, created.ID)
	}
	jobPath := "/v1/jobs/" + created.ID

	// The event stream ends after the terminal event.
	sse := call(t, base, "GET", jobPath+"/events", nil, nil, http.StatusOK)
	var events []client.Event
	sc := bufio.NewScanner(bytes.NewReader(sse))
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev client.Event
			strictDecode(t, "event", []byte(data), &ev)
			events = append(events, ev)
		}
	}
	if len(events) == 0 || !events[len(events)-1].Terminal() {
		t.Fatalf("events = %+v, want a log ending in a terminal event", events)
	}

	var got client.JobStatus
	strictDecode(t, "job get", call(t, base, "GET", jobPath, nil, nil, http.StatusOK), &got)
	if got.State != client.JobSucceeded || got.TotalSteps == 0 || len(got.Progress) == 0 {
		t.Fatalf("job = %+v", got)
	}
	var res client.RunResponse
	strictDecode(t, "job result", got.Result, &res)
	if len(res.Runs) != 1 || res.Runs[0].Output[0] != 499500 {
		t.Errorf("job result = %+v", res)
	}

	var list client.JobList
	strictDecode(t, "job list", call(t, base, "GET", "/v1/jobs?limit=10", nil, nil, http.StatusOK), &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Errorf("job list = %+v", list)
	}

	var cancelled client.JobStatus
	strictDecode(t, "job cancel", call(t, base, "DELETE", jobPath, nil, nil, http.StatusOK), &cancelled)
	if cancelled.ID != created.ID || cancelled.State != client.JobSucceeded {
		t.Errorf("cancel of a finished job = %+v", cancelled)
	}

	var tr client.JobTrace
	strictDecode(t, "job trace", call(t, base, "GET", jobPath+"/trace", nil, nil, http.StatusOK), &tr)
	if tr.ID != created.ID || tr.TraceID == "" || len(tr.Spans) == 0 || tr.Spans[0].TraceID != tr.TraceID {
		t.Errorf("trace = %+v", tr)
	}

	// Every refusal carries the uniform error envelope.
	var env struct {
		Error struct {
			Code         string `json:"code"`
			Message      string `json:"message"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	strictDecode(t, "404", call(t, base, "GET", "/v1/jobs/no-such-job", nil, nil, http.StatusNotFound), &env)
	if env.Error.Code != "job_not_found" || env.Error.Message == "" {
		t.Errorf("404 envelope = %+v", env)
	}
}
