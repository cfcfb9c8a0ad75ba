package client

import (
	"encoding/json"
	"fmt"
	"time"
)

// These types are the v1 wire contract. They are declared here and the
// server encodes and decodes them directly, so the SDK exposes no
// internal package and the two sides of the API cannot drift apart.

// SourceSpec names the program and input suite a request operates on:
// either inline mini-C source (with optional explicit input streams) or
// an embedded workload (with optional input scales).
type SourceSpec struct {
	// Name labels inline source in diagnostics (default "request.mc").
	Name string `json:"name,omitempty"`
	// Source is inline mini-C source text. Exactly one of Source /
	// Workload must be set.
	Source string `json:"source,omitempty"`
	// Workload selects an embedded workload by name.
	Workload string `json:"workload,omitempty"`
	// Inputs are explicit input streams, one batch job per stream
	// (inline source only).
	Inputs [][]int64 `json:"inputs,omitempty"`
	// Scales are workload input scales, one batch job per scale
	// (0 = the paper default).
	Scales []int `json:"scales,omitempty"`
	// Optimize compiles with the optimization passes.
	Optimize bool `json:"optimize,omitempty"`
	// MemWords overrides the VM memory size (inline source only).
	MemWords int64 `json:"mem_words,omitempty"`
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	Name     string `json:"name,omitempty"`
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
}

// CompileResponse reports the compiled program's shape.
type CompileResponse struct {
	Name         string `json:"name"`
	Functions    int    `json:"functions"`
	Instructions int    `json:"instructions"`
}

// ProfileRequest is the body of POST /v1/profile and /v1/advise.
type ProfileRequest struct {
	SourceSpec
	// TimeoutMS bounds the work's wall-clock time.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Top truncates the response to the N hottest constructs (0 = all).
	Top int `json:"top,omitempty"`
}

// RunSummary is one batch job's execution outcome.
type RunSummary struct {
	Job       int     `json:"job"`
	Steps     int64   `json:"steps"`
	Ret       int64   `json:"ret"`
	Output    []int64 `json:"output,omitempty"`
	OutputLen int     `json:"output_len"`
}

// ProfileResponse carries the union profile over the input suite. The
// profile payload is left raw: decode it into your own structure, or
// feed it to tooling as-is.
type ProfileResponse struct {
	Name    string          `json:"name"`
	Jobs    int             `json:"jobs"`
	Profile json.RawMessage `json:"profile"`
	Runs    []RunSummary    `json:"runs"`
}

// AdviceItem is one transformation suggestion.
type AdviceItem struct {
	Action string `json:"action"`
	Text   string `json:"text"`
}

// AdviceReport is the advisor's judgment of one construct.
type AdviceReport struct {
	Label          int          `json:"label"`
	Name           string       `json:"name"`
	Kind           string       `json:"kind"`
	Line           int          `json:"line"`
	Func           string       `json:"func"`
	Parallelizable bool         `json:"parallelizable"`
	Score          float64      `json:"score"`
	Advice         []AdviceItem `json:"advice"`
}

// AdviseResponse is the ranked guidance for the profiled suite.
type AdviseResponse struct {
	Name    string         `json:"name"`
	Jobs    int            `json:"jobs"`
	Reports []AdviceReport `json:"reports"`
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	SourceSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Parallel  bool  `json:"parallel,omitempty"`
}

// RunResponse carries the per-job execution outcomes.
type RunResponse struct {
	Name string       `json:"name"`
	Jobs int          `json:"jobs"`
	Runs []RunSummary `json:"runs"`
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Kind selects the work: "profile", "advise", or "run".
	Kind string `json:"kind"`
	SourceSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Top       int   `json:"top,omitempty"`
	Parallel  bool  `json:"parallel,omitempty"`
}

// JobState is the lifecycle of an async job: queued until it gets a
// worker, then running, then succeeded or failed (a deadline or
// cancellation can fail it straight from queued). A job that was queued
// or running when the server crashed is recovered as interrupted, or
// re-enqueued when the server is configured to.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobSucceeded   JobState = "succeeded"
	JobFailed      JobState = "failed"
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == JobSucceeded || st == JobFailed || st == JobInterrupted
}

// JobProgress is one batch job's progress snapshot.
type JobProgress struct {
	Job   int   `json:"job"`
	Steps int64 `json:"steps"`
	Done  bool  `json:"done"`
}

// JobStatus is the wire form of an async job.
type JobStatus struct {
	ID         string        `json:"id"`
	Kind       string        `json:"kind"`
	State      JobState      `json:"state"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
	Error      string        `json:"error,omitempty"`
	Progress   []JobProgress `json:"progress,omitempty"`
	TotalSteps int64         `json:"total_steps"`
	// Result is the job's result payload (kind-dependent shape), set on
	// succeeded jobs fetched via Job / SubmitAndWait.
	Result json.RawMessage `json:"result,omitempty"`
	// TraceID is the W3C trace ID the job's span timeline records under
	// (the submitting request's trace, when it carried one).
	TraceID string `json:"trace_id,omitempty"`
	// Spans counts timeline entries recorded so far; fetch them with
	// JobTrace.
	Spans int `json:"spans,omitempty"`
	// IdempotentReplay marks a submission that was answered with an
	// existing job via its Idempotency-Key.
	IdempotentReplay bool `json:"idempotent_replay,omitempty"`
}

// SpanRecord is one finished span in a job's trace timeline.
type SpanRecord struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_span_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// JobTrace is the body of GET /v1/jobs/{id}/trace: the job's persisted
// span timeline (admission, queue wait, compile, per-scale runs,
// journal appends, SSE deliveries), which survives server restarts
// alongside the event log.
type JobTrace struct {
	ID      string       `json:"id"`
	State   JobState     `json:"state"`
	TraceID string       `json:"trace_id,omitempty"`
	Spans   []SpanRecord `json:"spans"`
	// DroppedSpans counts spans discarded past the server's per-job cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// JobList is the paginated body of GET /v1/jobs.
type JobList struct {
	Jobs          []JobStatus `json:"jobs"`
	NextPageToken string      `json:"next_page_token,omitempty"`
}

// Event is one entry in a job's ordered event log. Seq increases by one
// per event within a job; the SSE stream's id: field carries it, which
// is what makes resumption exact.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "progress"
	// State is set on "state" events.
	State JobState `json:"state,omitempty"`
	// Error carries the failure message on terminal events.
	Error string `json:"error,omitempty"`
	// Job, Steps, and TotalSteps are set on "progress" events.
	Job        int   `json:"job,omitempty"`
	Steps      int64 `json:"steps,omitempty"`
	TotalSteps int64 `json:"total_steps,omitempty"`
}

// Terminal reports whether the event ends its job's stream.
func (ev Event) Terminal() bool {
	return ev.Type == "state" && ev.State.Terminal()
}

// APIError is a non-2xx response decoded from the server's uniform
// error envelope {"error": {"code", "message", "retry_after_ms"?}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("rate_limited",
	// "quota_exceeded", "queue_saturated", ...).
	Code string
	// Message is the human-readable explanation.
	Message string
	// RetryAfter is the server's backoff hint (from the Retry-After
	// header or retry_after_ms in the envelope), 0 if absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("alchemist api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether the request may succeed if retried: 429,
// 503, and every other 5xx.
func (e *APIError) Temporary() bool {
	return e.Status == 429 || e.Status >= 500
}
