package alchemist

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"alchemist/internal/obs"
)

// runQueue hands out an Engine's worker slots in admission order: a
// freed slot passes to the waiter with the lowest admission position,
// ties broken by arrival, whatever the goroutine scheduler does.
type runQueue struct {
	depth *obs.Gauge

	mu    sync.Mutex
	free  int
	pos   uint64    // last admission position handed out
	queue []*waiter // sorted by pos, then arrival
}

// waiter is one claim on a worker slot; ready closes when it is granted.
type waiter struct {
	pos   uint64
	ready chan struct{}
}

// enqueue claims a slot at admission position pos (0 takes a fresh one,
// behind every earlier position), granting it at once when one is free.
func (q *runQueue) enqueue(pos uint64) *waiter {
	q.mu.Lock()
	defer q.mu.Unlock()
	if pos == 0 {
		q.pos++
		pos = q.pos
	}
	w := &waiter{pos: pos, ready: make(chan struct{})}
	if q.free > 0 { // slots are only free while nobody waits
		q.free--
		close(w.ready)
		return w
	}
	i := sort.Search(len(q.queue), func(i int) bool { return q.queue[i].pos > pos })
	q.queue = slices.Insert(q.queue, i, w)
	q.depth.Set(int64(len(q.queue)))
	return w
}

// release returns a held slot, handing it straight to the first waiter.
func (q *runQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) == 0 {
		q.free++
		return
	}
	close(q.queue[0].ready)
	q.queue = slices.Delete(q.queue, 0, 1)
	q.depth.Set(int64(len(q.queue)))
}

// wait blocks until w holds a slot (true) or ctx ends first (false; w
// is withdrawn). A slot granted in the instant ctx ends is kept: the
// caller holds it and must release it.
func (q *runQueue) wait(ctx context.Context, w *waiter) bool {
	select {
	case <-w.ready:
		return true
	case <-ctx.Done():
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.queue, w)
	if i < 0 {
		return true
	}
	q.queue = slices.Delete(q.queue, i, i+1)
	q.depth.Set(int64(len(q.queue)))
	return false
}

// unit is one Submit call: its admission position and whether its
// function holds a worker slot right now. It travels in the function's
// ctx, under a key private to its Engine.
type unit struct {
	pos  uint64
	held atomic.Bool
}

type unitKey struct{ e *Engine }

// Submit queues fn as one unit of work at the end of the Engine's run
// queue and returns at once. fn runs on its own goroutine once the unit
// holds a worker slot, so units start in the order they were
// submitted. If ctx ends while the unit waits, fn runs at once without
// a slot, and ctx.Err() tells it so.
//
// Executions fn starts on this Engine through its ctx (Profile, Run,
// and every job of the batch calls) queue at the unit's admission
// position, ahead of every unit submitted after it. fn passes its slot
// to them and takes one back, again at its position, when the call
// returns; so nested calls cannot deadlock, even with WithWorkers(1).
// fn must not return before the Engine calls it made have delivered
// their last result.
func (e *Engine) Submit(ctx context.Context, fn func(ctx context.Context)) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := e.q.enqueue(0)
	u := &unit{pos: w.pos}
	ctx = context.WithValue(ctx, unitKey{e}, u)
	go func() {
		u.held.Store(e.q.wait(ctx, w))
		fn(ctx)
		if u.held.Swap(false) {
			e.q.release()
		}
	}()
}

// runs is one Engine call's executions, queued together at one
// admission position.
type runs struct {
	e    *Engine
	ws   []*waiter
	left atomic.Int64
	unit *unit // set when the call took its unit's slot
}

// queueRuns queues n executions for ctx, at the admission position of
// the unit ctx belongs to or at a fresh one. A unit holding a slot
// passes it on once they are queued.
func (e *Engine) queueRuns(ctx context.Context, n int) *runs {
	u, _ := ctx.Value(unitKey{e}).(*unit)
	var pos uint64
	if u != nil {
		pos = u.pos
	}
	r := &runs{e: e, ws: make([]*waiter, n)}
	r.left.Store(int64(n))
	for i := range r.ws {
		r.ws[i] = e.q.enqueue(pos)
		pos = r.ws[i].pos
	}
	if u != nil && u.held.CompareAndSwap(true, false) {
		r.unit = u
		e.q.release()
	}
	return r
}

// finish retires one execution, releasing its slot if it held one. The
// last to finish gives the unit its slot back before the call's last
// result is delivered: it queues the unit's claim ahead of the release,
// so the slot returns to the unit unless earlier-admitted work waits,
// and blocks until the claim is granted or ctx ends.
func (r *runs) finish(ctx context.Context, held bool) {
	var back *waiter
	if r.left.Add(-1) == 0 && r.unit != nil {
		back = r.e.q.enqueue(r.unit.pos)
	}
	if held {
		r.e.q.release()
	}
	if back != nil {
		r.unit.held.Store(r.e.q.wait(ctx, back))
	}
}
