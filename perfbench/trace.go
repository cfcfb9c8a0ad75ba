package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Spans of one op share Parent; roots have Parent -1.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Attr   string    `json:"attr,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory; they are written out when the run ends.
// A nil *spanLog records nothing, which is the untraced run.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (-1 on a nil log).
func (l *spanLog) begin(name, attr string, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Attr: attr, Start: now})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// add records an already finished span.
func (l *spanLog) add(name, attr string, parent int, start, end time.Time) {
	id := l.begin(name, attr, parent)
	if id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].Start, l.spans[id].End = start, end
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name, attr string, parent int, fn func()) {
	id := l.begin(name, attr, parent)
	fn()
	l.end(id)
}

// byName returns the durations (ms) of the finished spans called name.
func (l *spanLog) byName(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span name's summed self time (ms): duration
// minus the part its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]Interval{}
	for _, s := range l.spans {
		if s.Parent >= 0 && !s.End.IsZero() {
			kids[s.Parent] = append(kids[s.Parent], Interval{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range l.spans {
		if !s.End.IsZero() {
			out[s.Name] += ms(SelfTime(Interval{s.Start, s.End}, kids[s.ID]))
		}
	}
	return out
}

// writeFile writes the spans as JSON under the run's output directory.
func (l *spanLog) writeFile(name string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	l.mu.Lock()
	b, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
