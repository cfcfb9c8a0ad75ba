package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/xtrace"
)

// The v1 wire types are declared once, in alchemist/client. These
// aliases keep the names the benchmark harness imports from this
// package.
type (
	SourceSpec     = client.SourceSpec
	CompileRequest = client.CompileRequest
	ProfileRequest = client.ProfileRequest
	RunRequest     = client.RunRequest
	RunSummary     = client.RunSummary
	AdviceItem     = client.AdviceItem
	AdviceJSON     = client.AdviceReport
)

// resolveSpec turns the spec into a compile unit plus one ProfileJob
// per input: one per input stream or scale, or a single job with the
// default input when there are neither. All failures are user errors.
func resolveSpec(sp client.SourceSpec) (name, src string, jobs []alchemist.ProfileJob, memWords int64, err error) {
	switch {
	case sp.Workload != "" && sp.Source != "":
		return "", "", nil, 0, errors.New("request has both source and workload; pick one")
	case sp.Workload != "":
		if len(sp.Inputs) > 0 {
			return "", "", nil, 0, errors.New("inputs apply to inline source; use scales with a workload")
		}
		w, werr := progs.ByName(sp.Workload)
		if werr != nil {
			return "", "", nil, 0, werr
		}
		scales := sp.Scales
		if len(scales) == 0 {
			scales = []int{0}
		}
		for _, sc := range scales {
			jobs = append(jobs, alchemist.ProfileJob{Input: w.InputFor(sc)})
		}
		return w.Name + ".mc", w.Source, jobs, w.MemWords, nil
	case sp.Source != "":
		if len(sp.Scales) > 0 {
			return "", "", nil, 0, errors.New("scales apply to workloads; use inputs with inline source")
		}
		name = sp.Name
		if name == "" {
			name = "request.mc"
		}
		inputs := sp.Inputs
		if len(inputs) == 0 {
			inputs = [][]int64{nil}
		}
		for _, in := range inputs {
			jobs = append(jobs, alchemist.ProfileJob{Input: in})
		}
		return name, sp.Source, jobs, sp.MemWords, nil
	default:
		return "", "", nil, 0, errors.New("request needs source or workload")
	}
}

// ProfileResponse carries the union profile over the input suite. It
// stays server-side because the server encodes a typed profile, while
// client.ProfileResponse leaves it raw.
type ProfileResponse struct {
	Name    string              `json:"name"`
	Jobs    int                 `json:"jobs"`
	Profile *report.JSONProfile `json:"profile"`
	Runs    []client.RunSummary `json:"runs"`
}

// progressSink receives batch-job step reports; nil discards them.
type progressSink func(batchJob int, steps int64)

// ---------- sync handlers ----------

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	cl, ok := s.authn(w, r)
	if !ok || !s.allowRate(w, cl) {
		return
	}
	var req client.CompileRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	name, prog, _, err := s.prepare(r.Context(), client.SourceSpec{
		Name: req.Name, Source: req.Source, Workload: req.Workload, Optimize: req.Optimize,
	}, nil)
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.CompileResponse{
		Name:         name,
		Functions:    len(prog.IR().Funcs),
		Instructions: prog.IR().NumPCs,
	})
}

// handleWork serves one synchronous work endpoint: authentication,
// rate limit, admission, and the request's deadline around work.
func handleWork[Req, Resp any](s *Server, timeoutMS func(Req) int64, work func(*Server, context.Context, Req, progressSink) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cl, ok := s.authn(w, r)
		if !ok || !s.allowRate(w, cl) {
			return
		}
		var req Req
		if err := decodeJSON(r, &req); err != nil {
			s.writeDecodeError(w, err)
			return
		}
		timeout := s.timeoutFor(timeoutMS(req))
		release, ok := s.admitClient(w, cl, timeout)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		resp, err := work(s, ctx, req, nil)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// profileTimeout and runTimeout read a request's timeout_ms for
// handleWork.
func profileTimeout(r client.ProfileRequest) int64 { return r.TimeoutMS }
func runTimeout(r client.RunRequest) int64         { return r.TimeoutMS }

// ---------- work execution (shared by sync handlers and async jobs) ----------

// prepare resolves and compiles the request's source on the shared
// engine and returns one ProfileJob per input, carrying the memory size
// and reporting per-batch-job progress into sink.
func (s *Server) prepare(ctx context.Context, spec client.SourceSpec, sink progressSink) (string, *alchemist.Program, []alchemist.ProfileJob, error) {
	name, src, jobs, memWords, err := resolveSpec(spec)
	if err != nil {
		return "", nil, nil, userErr(err)
	}
	prog, err := s.eng.CompileWith(ctx, name, src,
		alchemist.CompileOptions{Optimize: spec.Optimize})
	if err != nil {
		return "", nil, nil, userErr(err)
	}
	for i := range jobs {
		jobs[i].Config = &alchemist.ProfileConfig{
			RunConfig: alchemist.RunConfig{MemWords: memWords},
		}
		if sink != nil {
			jobs[i].OnProgress = func(steps int64) { sink(i, steps) }
		}
	}
	return name, prog, jobs, nil
}

// profile profiles the request's input suite and merges the profiles.
func (s *Server) profile(ctx context.Context, req client.ProfileRequest, sink progressSink) (*ProfileResponse, error) {
	name, prog, pjobs, err := s.prepare(ctx, req.SourceSpec, sink)
	if err != nil {
		return nil, err
	}
	merged, results, err := s.eng.ProfileBatch(ctx, prog, pjobs)
	if err != nil {
		return nil, err
	}
	resp := &ProfileResponse{
		Name:    name,
		Jobs:    len(pjobs),
		Profile: report.ToJSON(merged),
	}
	if req.Top > 0 && len(resp.Profile.Constructs) > req.Top {
		resp.Profile.Constructs = resp.Profile.Constructs[:req.Top]
	}
	for _, res := range results {
		resp.Runs = append(resp.Runs, summarize(res.Job, res.Run))
	}
	return resp, nil
}

// advise is profile plus the advisor pass.
func (s *Server) advise(ctx context.Context, req client.ProfileRequest, sink progressSink) (*client.AdviseResponse, error) {
	name, prog, pjobs, err := s.prepare(ctx, req.SourceSpec, sink)
	if err != nil {
		return nil, err
	}
	merged, _, err := s.eng.ProfileBatch(ctx, prog, pjobs)
	if err != nil {
		return nil, err
	}
	top := req.Top
	if top <= 0 {
		top = 8
	}
	resp := &client.AdviseResponse{Name: name, Jobs: len(pjobs)}
	for _, rep := range alchemist.Advise(merged) {
		if len(resp.Reports) >= top {
			break
		}
		aj := client.AdviceReport{
			Label:          rep.Construct.Label,
			Name:           report.ConstructName(rep.Construct),
			Kind:           rep.Construct.Kind.String(),
			Line:           rep.Construct.Pos.Line,
			Func:           rep.Construct.FuncName,
			Parallelizable: rep.Parallelizable,
			Score:          rep.Score,
		}
		for _, a := range rep.Advices {
			aj.Advice = append(aj.Advice, client.AdviceItem{Action: a.Action.String(), Text: a.Text})
		}
		resp.Reports = append(resp.Reports, aj)
	}
	return resp, nil
}

// run executes the request's input suite uninstrumented via the
// engine's RunBatch.
func (s *Server) run(ctx context.Context, req client.RunRequest, sink progressSink) (*client.RunResponse, error) {
	name, prog, pjobs, err := s.prepare(ctx, req.SourceSpec, sink)
	if err != nil {
		return nil, err
	}
	rjobs := make([]alchemist.RunJob, len(pjobs))
	for i, pj := range pjobs {
		cfg := pj.Config.RunConfig
		cfg.Parallel = req.Parallel
		rjobs[i] = alchemist.RunJob{Input: pj.Input, Config: &cfg, OnProgress: pj.OnProgress}
	}
	results, err := s.eng.RunBatch(ctx, prog, rjobs)
	if err != nil {
		return nil, err
	}
	resp := &client.RunResponse{Name: name, Jobs: len(rjobs)}
	for _, res := range results {
		resp.Runs = append(resp.Runs, summarize(res.Job, res.Run))
	}
	return resp, nil
}

// summarize converts one run result to its wire form, capping output.
func summarize(jobIdx int, res *alchemist.RunResult) client.RunSummary {
	sum := client.RunSummary{Job: jobIdx}
	if res == nil {
		return sum
	}
	sum.Steps = res.Steps
	sum.Ret = res.Ret
	sum.OutputLen = len(res.Output)
	out := res.Output
	if len(out) > 64 {
		out = out[:64]
	}
	sum.Output = out
	return sum
}

// ---------- async jobs ----------

// writeIdemReplay answers a replayed Idempotency-Key: 200 (not 202)
// with the existing job and the idempotent_replay marker.
func (s *Server) writeIdemReplay(w http.ResponseWriter, j *job) {
	s.sm.idemReplays.Inc()
	st := j.status(false)
	st.IdempotentReplay = true
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		// Draining is transient: a well-behaved client should back off
		// and retry against the replacement process, so the 503 carries
		// the same retry hints as the 429 paths.
		s.writeRetryable(w, http.StatusServiceUnavailable, s.opts.RetryAfter,
			CodeDraining, "server is draining; not accepting new jobs")
		return
	}
	cl, ok := s.authn(w, r)
	if !ok || !s.allowRate(w, cl) {
		return
	}
	// A replayed Idempotency-Key returns the existing job before any
	// decoding or admission: the first submission's outcome stands,
	// whatever the retry's body says.
	idemKey := r.Header.Get("Idempotency-Key")
	if j := s.store.getIdem(idemKey); j != nil {
		s.writeIdemReplay(w, j)
		return
	}
	var req client.JobRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	switch req.Kind {
	case "profile", "advise", "run":
	default:
		httpError(w, http.StatusBadRequest, CodeBadRequest, "unknown job kind %q (want profile, advise, or run)", req.Kind)
		return
	}
	// Validate the source before paying for an admission slot, so typos
	// fail fast with 400 rather than occupying the queue.
	if _, _, _, _, err := resolveSpec(req.SourceSpec); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	admitStart := time.Now()
	release, ok := s.admitClient(w, cl, s.timeoutFor(req.TimeoutMS))
	if !ok {
		return
	}
	admitEnd := time.Now()
	// The canonicalized request is journaled with the job so a crash
	// recovery can re-enqueue it.
	reqRaw, err := json.Marshal(req)
	if err != nil {
		release()
		httpError(w, http.StatusInternalServerError, CodeInternal, "encoding request: %v", err)
		return
	}
	j := newJob(req.Kind, reqRaw, idemKey, s.wal)
	// The job adopts the submitting request's trace: its whole timeline
	// shares one trace ID, parented under the request's root span. An
	// SDK retry replays via Idempotency-Key above, so the first
	// submission's trace stands.
	if sc := xtrace.SpanContextFrom(r.Context()); sc.Valid() {
		j.trace = sc
	}
	if winner := s.store.putOrIdem(j); winner != j {
		// Two racing submissions shared the key; the loser's job has no
		// journal footprint yet and is simply dropped.
		release()
		s.writeIdemReplay(w, winner)
		return
	}
	j.enqueue()
	if j.trace.Valid() {
		j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
			"admit", admitStart, admitEnd, nil))
	}
	s.sm.jobsCreated.Inc()
	s.sm.jobsActive.Add(1)
	s.startJob(j, req, release)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// startJob submits the job to the engine's run queue as one unit,
// holding the admission slot until it finishes. The job turns running,
// and its queue span ends, when the unit gets a worker slot; a job
// whose deadline or cancellation comes first fails straight from
// queued. The job's deadline hangs off the server's lifetime context,
// not the creating request: the client can disconnect and poll later.
func (s *Server) startJob(j *job, req client.JobRequest, release func()) {
	ctx, cancel := context.WithTimeout(s.lifeCtx, s.timeoutFor(req.TimeoutMS))
	if j.trace.Valid() {
		// Engine spans (compile cache hit/miss/coalesced, per-scale
		// profile/run) started under this context end into both the
		// tracer's retention and the job's persisted timeline.
		ctx = xtrace.ContextWithTracer(ctx, s.tracer)
		ctx = xtrace.ContextWithSpanContext(ctx, j.trace)
		ctx = xtrace.ContextWithRecorder(ctx, j)
	}
	// pprof labels travel in the context to the unit's goroutine and on
	// to every engine worker it queues, attributing their CPU samples
	// to the job id and endpoint.
	ctx = pprof.WithLabels(ctx, pprof.Labels("job_id", j.id, "endpoint", j.kind))
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	sink := func(batchJob int, steps int64) {
		j.reportProgress(batchJob, steps, s.opts.ProgressInterval)
	}
	s.jobWG.Add(1)
	s.eng.Submit(ctx, func(ctx context.Context) {
		defer s.jobWG.Done()
		defer release()
		defer cancel()
		pprof.SetGoroutineLabels(ctx)
		var result any
		err := ctx.Err()
		if err == nil {
			j.setRunning()
			if j.trace.Valid() {
				j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
					"queue", j.created, time.Now(), nil))
			}
			switch j.kind {
			case "profile":
				result, err = s.profile(ctx, client.ProfileRequest{SourceSpec: req.SourceSpec, Top: req.Top}, sink)
			case "advise":
				result, err = s.advise(ctx, client.ProfileRequest{SourceSpec: req.SourceSpec, Top: req.Top}, sink)
			case "run":
				result, err = s.run(ctx, client.RunRequest{SourceSpec: req.SourceSpec, Parallel: req.Parallel}, sink)
			}
		}
		j.finish(result, err)
		s.sm.jobsActive.Add(-1)
	})
}

const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// encodeCursor renders a pagination cursor naming the last returned
// job. The ordering key is (created_at, id), which is stable: recovery
// preserves creation times and ids, and retirement between pages only
// removes rows.
func encodeCursor(st client.JobStatus) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("v1:%d:%s", st.CreatedAt.UnixNano(), st.ID)))
}

// decodeCursor parses a page token back into its ordering key.
func decodeCursor(tok string) (createdNS int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, "", err
	}
	parts := strings.SplitN(string(raw), ":", 3)
	if len(parts) != 3 || parts[0] != "v1" {
		return 0, "", errors.New("malformed token")
	}
	createdNS, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, "", err
	}
	return createdNS, parts[2], nil
}

// handleJobList serves GET /v1/jobs with a state= filter, a limit=
// page size, and cursor-based page_token= pagination over the stable
// (created_at, id) ordering.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	q := r.URL.Query()

	var filter client.JobState
	if st := q.Get("state"); st != "" {
		filter = client.JobState(st)
		if !validJobState(filter) {
			httpError(w, http.StatusBadRequest, CodeBadRequest,
				"unknown state %q (want queued, running, succeeded, failed, or interrupted)", st)
			return
		}
	}
	limit := defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", ls)
			return
		}
		limit = min(v, maxListLimit)
	}
	var afterNS int64
	var afterID string
	hasCursor := false
	if tok := q.Get("page_token"); tok != "" {
		var err error
		afterNS, afterID, err = decodeCursor(tok)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "invalid page_token")
			return
		}
		hasCursor = true
	}

	out := client.JobList{Jobs: make([]client.JobStatus, 0, limit)}
	for _, j := range s.store.list() {
		st := j.status(false)
		if filter != "" && st.State != filter {
			continue
		}
		if hasCursor {
			ns := st.CreatedAt.UnixNano()
			if ns < afterNS || (ns == afterNS && st.ID <= afterID) {
				continue
			}
		}
		if len(out.Jobs) == limit {
			out.NextPageToken = encodeCursor(out.Jobs[limit-1])
			break
		}
		out.Jobs = append(out.Jobs, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleJobEvents streams the job's event log as Server-Sent Events:
// every past event is replayed in order, then live events as they
// happen, ending after the terminal state event. A Last-Event-ID header
// (the SSE reconnect convention; the stream's id: field carries the
// event Seq) resumes from the first unseen event instead of replaying
// the whole log. Idle streams emit a ": keepalive" comment every
// SSEKeepAlive so proxy idle timeouts do not cut them.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	next := 0
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.Atoi(lid)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "malformed Last-Event-ID %q (want a non-negative event seq)", lid)
			return
		}
		next = n + 1
		s.sm.sseResumed.Inc()
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	s.sm.sseStreams.Inc()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// The stream interval lands in the job's span timeline when it
	// closes: how long delivery was attached, how many events it moved,
	// and whether it was a Last-Event-ID resume.
	streamStart := time.Now()
	resumed := next > 0
	sent := 0
	defer func() {
		if j.trace.Valid() {
			j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
				"sse", streamStart, time.Now(), map[string]string{
					"events":  strconv.Itoa(sent),
					"resumed": strconv.FormatBool(resumed),
				}))
		}
	}()

	// A client disconnect must unblock waitEvents.
	stop := context.AfterFunc(r.Context(), j.wake)
	defer stop()

	for {
		evs, done, timedOut := j.waitEvents(r.Context(), next, s.opts.SSEKeepAlive)
		if r.Context().Err() != nil {
			return
		}
		if timedOut {
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		fl.Flush()
		next += len(evs)
		sent += len(evs)
		if done {
			return
		}
	}
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	resp := client.JobTrace{
		ID:           j.id,
		State:        j.state,
		TraceID:      j.traceID(),
		DroppedSpans: j.spansDropped,
	}
	for _, sp := range j.spans {
		resp.Spans = append(resp.Spans, client.SpanRecord(sp))
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// VersionResponse is the body of GET /v1/version.
type VersionResponse struct {
	Service string `json:"service"`
	obs.BuildInfo
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{Service: "alchemist", BuildInfo: s.build})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.isDraining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status    string        `json:"status"`
		Workers   int           `json:"workers"`
		Queue     int           `json:"queue_capacity"`
		Durable   bool          `json:"durable"`
		Build     obs.BuildInfo `json:"build"`
		Workloads []string      `json:"workloads"`
	}{
		Status:  state,
		Workers: s.eng.Workers(),
		Queue:   s.opts.QueueDepth,
		Durable: s.wal != nil,
		Build:   s.build,
		Workloads: func() []string {
			var names []string
			for _, wl := range progs.All() {
				names = append(names, wl.Name)
			}
			return names
		}(),
	})
}

// ---------- error mapping ----------

// writeDecodeError maps body-parse failures: 413 for oversized bodies,
// 400 otherwise.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	if isMaxBytes(err) {
		httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"request body exceeds %d bytes", s.opts.MaxBodyBytes)
		return
	}
	httpError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
}

// writeExecError maps work failures onto statuses: 400 for user errors
// (bad source), 504 for deadline expiry, 503 for cancellation (server
// shutdown; retryable, so it carries the Retry-After hints), 500
// otherwise.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	var ue *userError
	switch {
	case errors.As(err, &ue):
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", ue.err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "%v", err)
	case errors.Is(err, context.Canceled):
		s.writeRetryable(w, http.StatusServiceUnavailable, s.opts.RetryAfter, CodeCanceled, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

// writeSSE writes one event in text/event-stream framing. The event
// type doubles as the SSE event name so EventSource listeners can
// subscribe per type; the JSON payload repeats it for plain readers.
func writeSSE(w http.ResponseWriter, ev client.Event) error {
	data, err := json.Marshal(ev) // single-line, as a data: field needs
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}
