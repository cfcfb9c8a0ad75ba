// Package core implements the Alchemist dependence-distance profiler: it
// consumes VM instrumentation events, maintains the execution index tree
// online (paper Fig. 5 rules and Table I), detects RAW/WAR/WAW
// dependences through shadow memory, and attributes each dependence to
// every enclosing completed construct bottom-up (Table II).
package core

import (
	"fmt"
	"sort"

	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/shadow"
	"alchemist/internal/source"
)

// DepType classifies a dependence edge.
type DepType uint8

const (
	// RAW is a read-after-write (true) dependence.
	RAW DepType = iota
	// WAR is a write-after-read (anti) dependence.
	WAR
	// WAW is a write-after-write (output) dependence.
	WAW

	numDepTypes = 3
)

func (d DepType) String() string {
	switch d {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	default:
		return "?"
	}
}

// EdgeKey identifies a static dependence edge within one construct's
// profile: head and tail instruction PCs plus the dependence type.
type EdgeKey struct {
	HeadPC int32
	TailPC int32
	Type   DepType
}

// EdgeStat aggregates the dynamic instances of a static edge. The paper
// keeps only the minimum distance, because the minimum bounds the
// exploitable concurrency; we additionally count occurrences.
type EdgeStat struct {
	MinDist int64
	Count   int64
}

// constructProfile is the online per-label profile (PROFILE[pc] in the
// paper).
type constructProfile struct {
	label   int
	kind    indexing.Kind
	ttotal  int64
	minDur  int64
	maxDur  int64
	inst    int64
	nesting int64 // recursion depth counter (§III.B recursion fix)
	// parents counts the instances pushed directly under each parent
	// label (the NestDirect entries of this construct).
	parents []nestCount
}

type nestCount struct {
	parent int
	count  int64
}

// nestUnder counts one instance pushed directly under a construct
// labelled parent.
func (cp *constructProfile) nestUnder(parent int) {
	for i := range cp.parents {
		if cp.parents[i].parent == parent {
			cp.parents[i].count++
			return
		}
	}
	cp.parents = append(cp.parents, nestCount{parent: parent, count: 1})
}

// edgeProfile is one interned static edge together with its statistics
// in every construct it crosses, one site per construct label slot.
type edgeProfile struct {
	key   EdgeKey
	sites []edgeSite
}

type edgeSite struct {
	slot int32
	EdgeStat
}

// add folds one dynamic instance at distance dist into the site of slot
// and returns the index after that site. The search starts at index
// from: a dependence walks its ancestor chain in the same order every
// time, so passing the previous result finds each next site at once.
func (e *edgeProfile) add(slot int32, dist int64, from int) int {
	n := len(e.sites)
	for i := 0; i < n; i++ {
		j := from + i
		if j >= n {
			j -= n
		}
		if s := &e.sites[j]; s.slot == slot {
			s.Count++
			if dist < s.MinDist {
				s.MinDist = dist
			}
			return j + 1
		}
	}
	e.sites = append(e.sites, edgeSite{slot: slot, EdgeStat: EdgeStat{MinDist: dist, Count: 1}})
	return n + 1
}

// Edge is a finalized static dependence edge of one construct.
type Edge struct {
	HeadPC  int
	TailPC  int
	Type    DepType
	MinDist int64
	Count   int64
	HeadPos source.Pos
	TailPos source.Pos
}

// Violates reports whether this edge hinders running the construct as a
// future: the minimal observed distance does not exceed the construct's
// duration, so in the parallel schedule the tail could run before the
// head completes (paper §II).
func (e Edge) Violates(dur int64) bool { return e.MinDist <= dur }

// ConstructStat is the finalized profile of one static construct.
type ConstructStat struct {
	// Label is the global PC of the construct head.
	Label int
	// Kind says whether the construct is a procedure, loop, or
	// conditional.
	Kind indexing.Kind
	// Pos is the source location of the construct head.
	Pos source.Pos
	// FuncName is the enclosing (or, for KindFunc, the named) function.
	FuncName string
	// Ttotal is the total instruction count spent in the construct,
	// counting each recursive nest once (§III.B).
	Ttotal int64
	// MinDur and MaxDur bound the individual instance durations (an
	// extension over the paper's aggregate profile: skewed instance
	// durations flag constructs whose mean is unrepresentative).
	MinDur int64
	MaxDur int64
	// Instances is the number of completed outermost instances; for loops
	// this counts iterations, as in the paper's Fig. 2 profile.
	Instances int64
	// Edges are the static dependence edges from this construct to its
	// continuation, sorted by ascending minimal distance.
	Edges []Edge
}

// MeanDur returns the average instance duration, the Tdur against which
// dependence distances are compared.
func (c *ConstructStat) MeanDur() int64 {
	if c.Instances == 0 {
		return 0
	}
	return c.Ttotal / c.Instances
}

// ViolatingEdges returns this construct's edges of type t with
// MinDist <= MeanDur (the "violating static dependences" of Fig. 6).
func (c *ConstructStat) ViolatingEdges(t DepType) []Edge {
	dur := c.MeanDur()
	var out []Edge
	for _, e := range c.Edges {
		if e.Type == t && e.Violates(dur) {
			out = append(out, e)
		}
	}
	return out
}

// CountEdges returns the number of edges of type t.
func (c *ConstructStat) CountEdges(t DepType) int {
	n := 0
	for _, e := range c.Edges {
		if e.Type == t {
			n++
		}
	}
	return n
}

// Profile is the result of one profiled execution.
type Profile struct {
	// Program is the profiled program.
	Program *ir.Program
	// TotalSteps is the executed instruction count (the profile's time
	// unit).
	TotalSteps int64
	// Constructs holds one entry per static construct that completed at
	// least one instance, sorted by descending Ttotal.
	Constructs []*ConstructStat
	// StaticConstructs is the number of distinct construct labels
	// executed; DynamicConstructs the total instance count (Table III's
	// Static/Dynamic columns).
	StaticConstructs  int64
	DynamicConstructs int64
	// NestDirect[child<<32|parent] counts how many instances of construct
	// `child` were pushed directly under an instance of construct
	// `parent`; used by the Fig. 6(b) "remove constructs parallelized
	// along with C1" analysis.
	NestDirect map[uint64]int64
	// Pool reports construct-pool behaviour (Theorem 1 validation).
	Pool indexing.PoolStats
	// Shadow reports shadow-memory behaviour.
	Shadow shadow.Stats

	byLabel map[int]*ConstructStat
}

// Construct returns the stats for the construct headed at global PC
// label, or nil.
func (p *Profile) Construct(label int) *ConstructStat {
	return p.byLabel[label]
}

// ConstructAtLine returns the first construct (highest Ttotal) whose head
// is on the given 1-based source line, preferring kind k; nil if none.
func (p *Profile) ConstructAtLine(line int, k indexing.Kind) *ConstructStat {
	var fallback *ConstructStat
	for _, c := range p.Constructs {
		if c.Pos.Line != line {
			continue
		}
		if c.Kind == k {
			return c
		}
		if fallback == nil {
			fallback = c
		}
	}
	return fallback
}

// ConstructForFunc returns the procedure construct of the named function.
func (p *Profile) ConstructForFunc(name string) *ConstructStat {
	f := p.Program.FindFunc(name)
	if f == nil {
		return nil
	}
	return p.byLabel[FuncLabel(f.Base)]
}

// NestKey packs a (child, parent) construct label pair.
func NestKey(child, parent int) uint64 {
	return uint64(uint32(child))<<32 | uint64(uint32(parent))
}

// TotalViolating sums the violating static edges of type t across all
// constructs (the Fig. 6 normalization denominator).
func (p *Profile) TotalViolating(t DepType) int {
	n := 0
	for _, c := range p.Constructs {
		n += len(c.ViolatingEdges(t))
	}
	return n
}

// String renders a one-line summary.
func (p *Profile) String() string {
	return fmt.Sprintf("profile: %d steps, %d static / %d dynamic constructs",
		p.TotalSteps, p.StaticConstructs, p.DynamicConstructs)
}

// finalize converts the online profiles into the exported Profile. It
// builds every exported structure afresh, so Finish may be called again.
func (pr *Profiler) finalize() *Profile {
	prog := pr.prog
	p := &Profile{
		Program:           prog,
		TotalSteps:        pr.time,
		DynamicConstructs: pr.dynamic,
		NestDirect:        make(map[uint64]int64),
		Pool:              pr.pool.Stats(),
		Shadow:            pr.shadow.Stats(),
		byLabel:           make(map[int]*ConstructStat),
	}
	bySlot := make([]*ConstructStat, len(pr.profiles))
	for slot, cp := range pr.profiles {
		if cp == nil {
			continue
		}
		label := cp.label
		cs := &ConstructStat{
			Label:     label,
			Kind:      cp.kind,
			Ttotal:    cp.ttotal,
			MinDur:    cp.minDur,
			MaxDur:    cp.maxDur,
			Instances: cp.inst,
		}
		if base, ok := IsFuncLabel(label); ok {
			if f := prog.FuncAt(base); f != nil {
				cs.FuncName = f.Name
				cs.Pos = f.Pos
			}
		} else {
			cs.Pos = prog.PosOf(label)
			if f := prog.FuncAt(label); f != nil {
				cs.FuncName = f.Name
			}
		}
		for _, n := range cp.parents {
			p.NestDirect[NestKey(label, n.parent)] = n.count
		}
		bySlot[slot] = cs
		p.Constructs = append(p.Constructs, cs)
		p.byLabel[label] = cs
	}
	p.StaticConstructs = int64(len(p.Constructs))
	for _, e := range pr.edges {
		k := e.key
		headPos, tailPos := prog.PosOf(int(k.HeadPC)), prog.PosOf(int(k.TailPC))
		for _, s := range e.sites {
			cs := bySlot[s.slot]
			cs.Edges = append(cs.Edges, Edge{
				HeadPC:  int(k.HeadPC),
				TailPC:  int(k.TailPC),
				Type:    k.Type,
				MinDist: s.MinDist,
				Count:   s.Count,
				HeadPos: headPos,
				TailPos: tailPos,
			})
		}
	}
	for _, cs := range p.Constructs {
		sort.Slice(cs.Edges, func(i, j int) bool {
			if cs.Edges[i].MinDist != cs.Edges[j].MinDist {
				return cs.Edges[i].MinDist < cs.Edges[j].MinDist
			}
			if cs.Edges[i].HeadPC != cs.Edges[j].HeadPC {
				return cs.Edges[i].HeadPC < cs.Edges[j].HeadPC
			}
			return cs.Edges[i].TailPC < cs.Edges[j].TailPC
		})
	}
	sort.Slice(p.Constructs, func(i, j int) bool {
		if p.Constructs[i].Ttotal != p.Constructs[j].Ttotal {
			return p.Constructs[i].Ttotal > p.Constructs[j].Ttotal
		}
		return p.Constructs[i].Label < p.Constructs[j].Label
	})
	return p
}
