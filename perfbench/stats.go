package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// Timing summarizes one set of duration samples: the median plus the
// highest percentile (at most P99) that leaves at least minBeyond
// samples beyond it.
type Timing struct {
	N      int
	P50    float64 // same unit as the samples
	TailP  int     // the percentile Tail reports; 0 when N is too small
	Tail   float64 // the TailP-th percentile
	Beyond int     // samples strictly after the Tail rank
}

// rank returns the 1-based nearest-rank index of percentile q over n
// samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Summarize computes a Timing over xs (not modified). With fewer than
// minBeyond+1 samples no tail percentile exists: TailP is 0 and Tail
// repeats the largest sample.
func Summarize(xs []float64) Timing {
	n := len(xs)
	if n == 0 {
		return Timing{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := Timing{N: n, P50: median(s), Tail: s[n-1]}
	for q := 99; q >= 50; q-- {
		r := rank(float64(q), n)
		if n-r >= minBeyond {
			t.TailP, t.Tail, t.Beyond = q, s[r-1], n-r
			break
		}
	}
	return t
}

// median of a sorted slice; the mean of the middle pair for even sizes.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Median returns the median of xs (not modified).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// String renders the timing with its sample count, e.g.
// "p50 1.20 p99 3.40 (n=1200, 12 beyond)".
func (t Timing) String() string {
	if t.TailP == 0 {
		return fmt.Sprintf("p50 %.3f max %.3f (n=%d, too few for a tail)", t.P50, t.Tail, t.N)
	}
	return fmt.Sprintf("p50 %.3f p%d %.3f (n=%d, %d beyond)", t.P50, t.TailP, t.Tail, t.N, t.Beyond)
}

// OpenLoopLatency is the latency of one open-loop request measured from
// the time it was due to be sent, not from when it was actually sent: a
// stall delays every request queued behind it, and that wait counts.
func OpenLoopLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// ErrorRate counts failed, refused and wrong-output operations against
// every operation attempted. Zero attempts give zero.
func ErrorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// Interval is one span's extent.
type Interval struct{ Start, End time.Time }

// SelfTime is a span's duration minus the part of it that its child
// spans cover. Children may overlap each other and may stick out of the
// parent; only their union inside the parent is subtracted.
func SelfTime(parent Interval, children []Interval) time.Duration {
	var cs []Interval
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var covered time.Duration
	var cur Interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return parent.End.Sub(parent.Start) - covered
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
