package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"alchemist/client"
	"alchemist/internal/obs"
	"alchemist/internal/xtrace"
)

// validJobState reports whether s names a real state (for the list
// endpoint's state= filter).
func validJobState(s client.JobState) bool {
	switch s {
	case client.JobQueued, client.JobRunning, client.JobSucceeded, client.JobFailed, client.JobInterrupted:
		return true
	}
	return false
}

// job is one async unit of work: its state machine, progress aggregate,
// event log, and result. Every externally visible mutation flows
// through publishLocked / finish, which mirror it into the write-ahead
// journal (when one is attached) so the job survives a crash.
type job struct {
	id      string
	kind    string
	created time.Time
	idemKey string
	// reqRaw is the canonicalized submission body, journaled so the job
	// can be re-enqueued after a crash.
	reqRaw json.RawMessage
	wal    *walWriter

	// trace is the job's trace identity: every span in its timeline
	// shares trace.TraceID and is parented (directly or transitively)
	// under trace.SpanID, the submitting request's root span. Zero for
	// jobs submitted before tracing existed (journal replay).
	trace xtrace.SpanContext

	mu   sync.Mutex
	cond *sync.Cond

	state    client.JobState
	started  time.Time
	finished time.Time
	errMsg   string
	result   json.RawMessage

	events          []client.Event
	progress        obs.Progress
	lastProgressPub time.Time

	// spans is the job's persisted span timeline: admission, queue
	// wait, compile, per-scale profile runs, journal appends, SSE
	// delivery. Bounded by maxJobSpans; journaled like events.
	spans        []xtrace.SpanRecord
	spansDropped int

	cancel context.CancelFunc
}

// maxJobSpans bounds one job's persisted span timeline (and therefore
// its journal footprint); spans past the cap are counted, not kept.
const maxJobSpans = 128

// RecordSpan appends one finished span to the job's persisted timeline
// and journals it. It implements xtrace.Recorder, so a context built
// with xtrace.ContextWithRecorder(ctx, j) routes every span ended under
// it — engine compile/profile spans included — into the job record.
func (j *job) RecordSpan(rec xtrace.SpanRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recordSpanLocked(rec)
}

// recordSpanLocked is RecordSpan for callers already holding j.mu
// (spans measured inside locked sections, like the terminal journal
// append).
func (j *job) recordSpanLocked(rec xtrace.SpanRecord) {
	if len(j.spans) >= maxJobSpans {
		j.spansDropped++
		return
	}
	seq := len(j.spans)
	j.spans = append(j.spans, rec)
	j.wal.append(walRecord{Type: recSpan, ID: j.id, At: rec.End, Span: &rec, SpanSeq: seq})
}

// newJob builds a queued job without publishing or journaling anything:
// callers must store it (so journal snapshots can see it) and then call
// enqueue.
func newJob(kind string, reqRaw json.RawMessage, idemKey string, wal *walWriter) *job {
	j := &job{
		id:      newJobID(),
		kind:    kind,
		created: time.Now(),
		idemKey: idemKey,
		reqRaw:  reqRaw,
		wal:     wal,
		state:   client.JobQueued,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id
		// would still be unique enough not to matter for an in-memory
		// store, so don't take the server down over it.
		return "job-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// enqueue journals the job's creation and publishes the queued event.
// It must run after the job is in the store: a journal snapshot taken
// in between then includes the job, which is what makes the created
// record safe to compact.
func (j *job) enqueue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wal.append(walRecord{
		Type: recCreated, ID: j.id, At: j.created,
		Kind: j.kind, Request: j.reqRaw, IdemKey: j.idemKey,
		TraceID: j.traceID(),
	})
	j.publishLocked(client.Event{Type: "state", State: client.JobQueued})
}

// publishLocked appends one event, wakes subscribers, and journals it.
// Callers hold j.mu; the in-memory append happens before the journal
// write so a snapshot of this job always covers its journaled records.
func (j *job) publishLocked(ev client.Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.wal.append(walRecord{Type: recEvent, ID: j.id, At: time.Now(), Event: &ev})
}

// wake re-checks every subscriber's wait condition; used to unblock
// streams whose client context ended.
func (j *job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// setRunning transitions queued → running, when the job's unit gets a
// worker slot.
func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = client.JobRunning
	j.started = time.Now()
	j.publishLocked(client.Event{Type: "state", State: client.JobRunning})
}

// finish records the terminal state, result, and final progress
// snapshot, publishes the terminal event, and journals the outcome.
func (j *job) finish(result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	for _, jp := range j.progress.Snapshot() {
		j.progress.MarkDone(jp.Job)
	}
	if err != nil {
		j.state = client.JobFailed
		j.errMsg = err.Error()
		j.publishLocked(client.Event{Type: "state", State: client.JobFailed, Error: j.errMsg})
	} else {
		j.state = client.JobSucceeded
		if result != nil {
			if raw, merr := json.Marshal(result); merr == nil {
				j.result = raw
			}
		}
		j.publishLocked(client.Event{Type: "state", State: client.JobSucceeded})
	}
	walStart := time.Now()
	j.wal.append(walRecord{
		Type: recDone, ID: j.id, At: j.finished,
		StartedAt: j.started, FinishedAt: j.finished,
		Error: j.errMsg, Result: j.result,
	})
	if j.wal != nil && j.trace.Valid() {
		j.recordSpanLocked(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
			"journal.append", walStart, time.Now(), nil))
	}
}

// traceID returns the job's hex trace ID ("" when untraced).
func (j *job) traceID() string {
	if !j.trace.Valid() {
		return ""
	}
	return j.trace.TraceID.String()
}

// interrupt marks a recovered non-terminal job as interrupted: the
// server crashed (or was killed) while it was queued or running, so its
// work is gone. The terminal event is journaled, making the next
// recovery a no-op.
func (j *job) interrupt(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = client.JobInterrupted
	j.errMsg = reason
	j.finished = time.Now()
	j.publishLocked(client.Event{Type: "state", State: client.JobInterrupted, Error: reason})
	j.wal.append(walRecord{
		Type: recDone, ID: j.id, At: j.finished,
		StartedAt: j.started, FinishedAt: j.finished, Error: reason,
	})
}

// requeue returns a recovered non-terminal job to the queued state for
// re-execution, continuing its event log.
func (j *job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = client.JobQueued
	j.started = time.Time{}
	j.publishLocked(client.Event{Type: "state", State: client.JobQueued})
}

// reportProgress feeds one batch job's step report into the progress
// aggregate and, rate-limited by minGap, into the event log. Negative
// minGap publishes every report.
func (j *job) reportProgress(batchJob int, steps int64, minGap time.Duration) {
	j.progress.Update(batchJob, steps)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		// A worker's final report can race the terminal event; the
		// event log must not grow after it.
		return
	}
	now := time.Now()
	if minGap > 0 && now.Sub(j.lastProgressPub) < minGap {
		return
	}
	j.lastProgressPub = now
	j.publishLocked(client.Event{
		Type:       "progress",
		Job:        batchJob,
		Steps:      steps,
		TotalSteps: j.progress.TotalSteps(),
	})
}

// waitEvents blocks until the log grows past `after`, the job reaches a
// terminal state, ctx ends, or maxWait elapses (maxWait <= 0 waits
// forever). It returns the new events, whether the returned slice
// completes the log of a terminated job (the stream can end), and
// whether it gave up on the wait — the SSE handler's cue to emit a
// keepalive comment.
func (j *job) waitEvents(ctx context.Context, after int, maxWait time.Duration) ([]client.Event, bool, bool) {
	var deadline time.Time
	if maxWait > 0 {
		deadline = time.Now().Add(maxWait)
		// The timer wakes the cond so the timeout is observed even with
		// no event traffic.
		t := time.AfterFunc(maxWait, j.wake)
		defer t.Stop()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= after && !j.state.Terminal() && ctx.Err() == nil {
		if maxWait > 0 && !time.Now().Before(deadline) {
			return nil, false, true
		}
		j.cond.Wait()
	}
	if after >= len(j.events) {
		// A resumed subscriber can ask for events past the end of a
		// terminated log; there is nothing left to send.
		return nil, j.state.Terminal(), false
	}
	evs := append([]client.Event(nil), j.events[after:]...)
	return evs, j.state.Terminal() && after+len(evs) == len(j.events), false
}

// status snapshots the job. withResult controls whether the (possibly
// large) result payload is included.
func (j *job) status(withResult bool) client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := client.JobStatus{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		CreatedAt:  j.created,
		Error:      j.errMsg,
		TotalSteps: j.progress.TotalSteps(),
		TraceID:    j.traceID(),
		Spans:      len(j.spans),
	}
	snap := j.progress.Snapshot()
	st.Progress = make([]client.JobProgress, len(snap))
	for i, jp := range snap {
		st.Progress[i] = client.JobProgress(jp)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if withResult && j.state == client.JobSucceeded && len(j.result) > 0 {
		st.Result = j.result
	}
	return st
}

// snapshot captures the job's full durable state for a journal
// snapshot.
func (j *job) snapshot() jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobSnapshot{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Error:      j.errMsg,
		Result:     j.result,
		Events:     append([]client.Event(nil), j.events...),
		Spans:      append([]xtrace.SpanRecord(nil), j.spans...),
		TraceID:    j.traceID(),
		IdemKey:    j.idemKey,
		Request:    j.reqRaw,
	}
}

// expired reports whether the job finished more than ttl ago.
func (j *job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && now.Sub(j.finished) > ttl
}

func (j *job) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// jobStore is the job index with TTL-based retirement, a hard capacity,
// and an idempotency-key index. With a journal attached, retirements
// are journaled so recovery does not resurrect retired jobs.
type jobStore struct {
	ttl time.Duration
	max int
	sm  *serverMetrics
	wal *walWriter

	mu     sync.Mutex
	jobs   map[string]*job
	byIdem map[string]*job
	order  []*job // creation order, for capacity eviction
}

func newJobStore(ttl time.Duration, max int, sm *serverMetrics, wal *walWriter) *jobStore {
	return &jobStore{
		ttl: ttl, max: max, sm: sm, wal: wal,
		jobs:   make(map[string]*job),
		byIdem: make(map[string]*job),
	}
}

// put registers j unconditionally (recovery path; idempotency keys are
// indexed but never contested there).
func (s *jobStore) put(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.byIdem[j.idemKey] = j
	}
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.sweep(time.Now())
}

// putOrIdem registers j unless another job already owns its
// idempotency key, in which case that job is returned and j is
// discarded (it has no journal footprint yet).
func (s *jobStore) putOrIdem(j *job) *job {
	s.mu.Lock()
	if j.idemKey != "" {
		if prev := s.byIdem[j.idemKey]; prev != nil {
			s.mu.Unlock()
			return prev
		}
		s.byIdem[j.idemKey] = j
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	s.sweep(time.Now())
	return j
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// getIdem returns the job owning an idempotency key, if any.
func (s *jobStore) getIdem(key string) *job {
	if key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byIdem[key]
}

// list returns every stored job in the API's stable order: creation
// time ascending, ties broken by id.
func (s *jobStore) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*job(nil), s.order...)
	sort.SliceStable(out, func(i, k int) bool {
		if !out[i].created.Equal(out[k].created) {
			return out[i].created.Before(out[k].created)
		}
		return out[i].id < out[k].id
	})
	return out
}

// snapshot captures the whole store for a journal snapshot.
func (s *jobStore) snapshot() storeSnapshot {
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	snap := storeSnapshot{Jobs: make([]jobSnapshot, 0, len(jobs))}
	for _, j := range jobs {
		snap.Jobs = append(snap.Jobs, j.snapshot())
	}
	return snap
}

// sweep retires finished jobs past their TTL and, when the store is
// over capacity, the oldest finished jobs beyond it. Unfinished jobs
// are never evicted — the admission queue bounds how many can exist.
func (s *jobStore) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.order[:0]
	overflow := len(s.order) - s.max
	for _, j := range s.order {
		evict := j.expired(now, s.ttl)
		if !evict && overflow > 0 && j.isTerminal() {
			evict = true
		}
		if evict {
			if overflow > 0 {
				overflow-- // any eviction shrinks the store
			}
			delete(s.jobs, j.id)
			if j.idemKey != "" {
				delete(s.byIdem, j.idemKey)
			}
			s.wal.append(walRecord{Type: recRetired, ID: j.id, At: now})
			s.sm.jobsRetired.Inc()
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}
