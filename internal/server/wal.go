package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alchemist/client"
	"alchemist/internal/journal"
	"alchemist/internal/xtrace"
)

// The server journals four record types. Replay is idempotent: a
// record whose effect is already reflected in the snapshot it follows
// (events are deduplicated by per-job sequence number) applies as a
// no-op, which is what lets snapshot encoding run concurrently with
// appends.
const (
	recCreated = "created" // a job entered the store
	recEvent   = "event"   // one event-log entry (state transition or progress)
	recSpan    = "span"    // one span-timeline entry
	recDone    = "done"    // terminal outcome: result / error, timestamps
	recRetired = "retired" // the store dropped the job (TTL or capacity)
)

// walRecord is the JSON payload of one journal record.
type walRecord struct {
	Type string    `json:"type"`
	ID   string    `json:"id"`
	At   time.Time `json:"at"`

	// created
	Kind    string          `json:"kind,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	IdemKey string          `json:"idem_key,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`

	// event
	Event *client.Event `json:"event,omitempty"`

	// span (SpanSeq deduplicates against snapshotted spans on replay,
	// exactly like Event.Seq for the event log)
	Span    *xtrace.SpanRecord `json:"span,omitempty"`
	SpanSeq int                `json:"span_seq,omitempty"`

	// done
	StartedAt  time.Time       `json:"started_at,omitzero"`
	FinishedAt time.Time       `json:"finished_at,omitzero"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// jobSnapshot is one job's full durable state inside a journal
// snapshot.
type jobSnapshot struct {
	ID         string              `json:"id"`
	Kind       string              `json:"kind"`
	State      client.JobState     `json:"state"`
	CreatedAt  time.Time           `json:"created_at"`
	StartedAt  time.Time           `json:"started_at,omitzero"`
	FinishedAt time.Time           `json:"finished_at,omitzero"`
	Error      string              `json:"error,omitempty"`
	Result     json.RawMessage     `json:"result,omitempty"`
	Events     []client.Event      `json:"events,omitempty"`
	Spans      []xtrace.SpanRecord `json:"spans,omitempty"`
	TraceID    string              `json:"trace_id,omitempty"`
	IdemKey    string              `json:"idem_key,omitempty"`
	Request    json.RawMessage     `json:"request,omitempty"`
}

// storeSnapshot is the journal snapshot payload: the whole job store.
type storeSnapshot struct {
	Jobs []jobSnapshot `json:"jobs"`
}

// walWriter fronts the journal for the job store: it serializes
// records, counts appends to trigger snapshot+compaction, and absorbs
// journal failures into a metric instead of failing requests (the
// in-memory store remains authoritative while the process lives).
// A nil *walWriter is valid and discards everything — servers without
// a DataDir run exactly as before.
type walWriter struct {
	jn        *journal.Journal
	store     *jobStore // set after store construction
	snapEvery int64
	errs      func() // increments the journal-error counter

	appends  atomic.Int64
	snapping atomic.Bool
	// disabled simulates a hard kill in tests: appends stop reaching
	// the journal, as if the process had already died.
	disabled atomic.Bool
}

func (w *walWriter) append(rec walRecord) {
	if w == nil || w.disabled.Load() {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		w.errs()
		return
	}
	if err := w.jn.Append(b); err != nil {
		w.errs()
		return
	}
	if w.snapEvery > 0 && w.appends.Add(1) >= w.snapEvery && w.snapping.CompareAndSwap(false, true) {
		w.appends.Store(0)
		// Snapshot on its own goroutine: append is called under job and
		// store locks that the snapshot encoder itself needs.
		go w.snapshot()
	}
}

// snapshot runs one snapshot+compaction cycle. Records appended while
// the store is being encoded land in segments the compaction keeps, so
// nothing is lost to the race; replay deduplicates the overlap.
func (w *walWriter) snapshot() {
	defer w.snapping.Store(false)
	if w.disabled.Load() {
		return
	}
	tok, err := w.jn.StartSnapshot()
	if err != nil {
		w.errs()
		return
	}
	payload, err := json.Marshal(w.store.snapshot())
	if err != nil {
		w.errs()
		return
	}
	if err := w.jn.FinishSnapshot(tok, payload); err != nil {
		w.errs()
	}
}

func (w *walWriter) close() error {
	if w == nil {
		return nil
	}
	return w.jn.Close()
}

// replayState folds a journal recovery (snapshot + post-snapshot
// records) into per-job durable state, in stable creation order.
func replayState(rec *journal.Recovery) ([]*jobSnapshot, error) {
	byID := make(map[string]*jobSnapshot)
	var order []string
	if rec.Snapshot != nil {
		var snap storeSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("server: corrupt journal snapshot: %w", err)
		}
		for i := range snap.Jobs {
			js := snap.Jobs[i]
			byID[js.ID] = &js
			order = append(order, js.ID)
		}
	}
	for _, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			// A checksummed-but-unparsable record means a version skew
			// or a bug; skip it rather than refuse to start.
			continue
		}
		switch r.Type {
		case recCreated:
			if _, ok := byID[r.ID]; ok {
				break // already in the snapshot
			}
			byID[r.ID] = &jobSnapshot{
				ID: r.ID, Kind: r.Kind, State: client.JobQueued,
				CreatedAt: r.At, IdemKey: r.IdemKey, Request: r.Request,
				TraceID: r.TraceID,
			}
			order = append(order, r.ID)
		case recEvent:
			js := byID[r.ID]
			if js == nil || r.Event == nil {
				break
			}
			if r.Event.Seq != len(js.Events) {
				break // duplicate of a snapshotted event (or a gap: drop)
			}
			js.Events = append(js.Events, *r.Event)
			if r.Event.Type == "state" {
				js.State = r.Event.State
				if r.Event.Error != "" {
					js.Error = r.Event.Error
				}
				if r.Event.State == client.JobRunning {
					js.StartedAt = r.At
				}
			}
		case recSpan:
			js := byID[r.ID]
			if js == nil || r.Span == nil {
				break
			}
			if r.SpanSeq != len(js.Spans) {
				break // duplicate of a snapshotted span (or a gap: drop)
			}
			js.Spans = append(js.Spans, *r.Span)
		case recDone:
			js := byID[r.ID]
			if js == nil {
				break
			}
			js.StartedAt, js.FinishedAt = r.StartedAt, r.FinishedAt
			if r.Error != "" {
				js.Error = r.Error
			}
			if len(r.Result) > 0 {
				js.Result = r.Result
			}
		case recRetired:
			delete(byID, r.ID)
		}
	}
	out := make([]*jobSnapshot, 0, len(byID))
	for _, id := range order {
		if js := byID[id]; js != nil {
			out = append(out, js)
		}
	}
	return out, nil
}

// restoreJob rebuilds an in-memory job from its durable state. The
// progress aggregate is rebuilt from the (throttled) progress events,
// so recovered step totals are lower bounds; authoritative per-run
// totals live in the result payload.
func restoreJob(js *jobSnapshot, wal *walWriter) *job {
	j := &job{
		id:       js.ID,
		kind:     js.Kind,
		created:  js.CreatedAt,
		idemKey:  js.IdemKey,
		reqRaw:   js.Request,
		wal:      wal,
		state:    js.State,
		started:  js.StartedAt,
		finished: js.FinishedAt,
		errMsg:   js.Error,
		result:   js.Result,
		events:   js.Events,
		spans:    js.Spans,
	}
	// Spans recorded after recovery (requeue) rejoin the original
	// trace; the lost parent span ID just makes them siblings of the
	// old root's children.
	if tid, err := xtrace.ParseTraceID(js.TraceID); err == nil {
		j.trace = xtrace.SpanContext{TraceID: tid, SpanID: xtrace.NewSpanID()}
	}
	j.cond = sync.NewCond(&j.mu)
	for _, ev := range js.Events {
		if ev.Type == "progress" {
			j.progress.Update(ev.Job, ev.Steps)
		}
	}
	if js.State == client.JobSucceeded {
		for _, jp := range j.progress.Snapshot() {
			j.progress.MarkDone(jp.Job)
		}
	}
	return j
}
