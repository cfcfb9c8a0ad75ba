package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Summarize must sort
	}
	return xs
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		tailP  int
		tail   float64
		beyond int
	}{
		{n: 1000, tailP: 99, tail: 990, beyond: 10},
		{n: 2000, tailP: 99, tail: 1980, beyond: 20},
		{n: 100, tailP: 90, tail: 90, beyond: 10},
		{n: 112, tailP: 91, tail: 102, beyond: 10},
	}
	for _, c := range cases {
		got := Summarize(seq(c.n))
		if got.N != c.n || got.TailP != c.tailP || got.Tail != c.tail || got.Beyond != c.beyond {
			t.Errorf("n=%d: got %+v, want p%d=%v with %d beyond", c.n, got, c.tailP, c.tail, c.beyond)
		}
	}
	// Fewer than 2*minBeyond samples leave no percentile >= p50 with ten
	// samples beyond it: the tail is reported as absent, never invented.
	got := Summarize(seq(15))
	if got.TailP != 0 || got.Tail != 15 {
		t.Errorf("n=15: got %+v, want no tail percentile and max 15", got)
	}
}

func TestSummarizeMedian(t *testing.T) {
	if got := Summarize([]float64{5, 1, 3}).P50; got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Summarize([]float64{4, 1, 3, 2}).P50; got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestOpenLoopLatencyCountsLateSend(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(30 * time.Millisecond) // the generator was stalled
	done := sent.Add(5 * time.Millisecond)
	if got := OpenLoopLatency(due, done); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms (measured from due time)", got)
	}
}

func TestErrorRateCountsAgainstAttempted(t *testing.T) {
	// 3 refused + 1 wrong output out of 200 attempted; the 196 that
	// completed are not the base.
	if got := ErrorRate(4, 200); got != 0.02 {
		t.Errorf("ErrorRate = %v, want 0.02", got)
	}
	if got := ErrorRate(0, 0); got != 0 {
		t.Errorf("ErrorRate(0,0) = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	parent := Interval{at(0), at(100)}
	cases := []struct {
		name     string
		children []Interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []Interval{{at(10), at(20)}, {at(50), at(70)}}, 70 * time.Millisecond},
		{"overlapping children count once", []Interval{{at(10), at(40)}, {at(30), at(60)}}, 50 * time.Millisecond},
		{"nested child", []Interval{{at(10), at(60)}, {at(20), at(30)}}, 50 * time.Millisecond},
		{"child sticks out", []Interval{{at(-20), at(10)}, {at(90), at(130)}}, 80 * time.Millisecond},
		{"child outside", []Interval{{at(200), at(300)}}, 100 * time.Millisecond},
		{"touching", []Interval{{at(0), at(50)}, {at(50), at(100)}}, 0},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}
