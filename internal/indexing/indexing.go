// Package indexing implements the execution index tree and the bounded
// construct pool of Alchemist (paper §III.A, Table I).
//
// Each dynamic construct instance (a procedure activation, a loop
// iteration, or one execution of a conditional) is a node. Nodes link to
// their enclosing construct instance via Parent, forming the execution
// index tree. Completed nodes are not freed: dependence heads detected
// later may still reference them. Instead they are appended to a pool and
// lazily retired — a node may be reused only once it has been dead for at
// least as long as its own duration, because any dependence reaching back
// into it after that point necessarily has Tdep > Tdur and cannot change
// the profile (paper Theorem 1).
package indexing

import "fmt"

// Kind classifies a construct.
type Kind uint8

const (
	// KindFunc is a procedure activation.
	KindFunc Kind = iota
	// KindLoop is one loop iteration.
	KindLoop
	// KindCond is one execution of a conditional (if / && / || / ?:).
	KindCond
)

func (k Kind) String() string {
	switch k {
	case KindFunc:
		return "func"
	case KindLoop:
		return "loop"
	case KindCond:
		return "cond"
	default:
		return "?"
	}
}

// None is the index of no construct: the Parent of a root node and the
// node of an access made outside every construct. Slot None of each
// pool's slab holds a zero node, whose window is empty, so an ancestor
// walk ends there as InWindow fails.
const None int32 = 0

// Construct is one dynamic construct instance; a node of the execution
// index tree. Nodes live in their Pool's slab and refer to each other by
// slab index, so the tree holds no pointers.
type Construct struct {
	// Tenter is the timestamp when the instance started.
	Tenter int64
	// Texit is the timestamp when the instance completed, or 0 while the
	// instance is active (reset on every acquire, per Table I line 10).
	Texit int64
	// Label is the global PC of the construct head: the function entry PC
	// or the predicate branch PC.
	Label int32
	// Parent indexes the enclosing construct instance (None at the root).
	// Parents may be recycled later; consumers must re-validate with
	// InWindow before trusting a parent's identity.
	Parent int32
	// PopPC is the global PC of the instruction that closes this
	// construct (the predicate's immediate post-dominator), or a negative
	// value when it closes only at function exit.
	PopPC int32
	// Kind classifies the construct.
	Kind Kind
}

// InWindow reports whether the instance was live at time t, i.e. the
// instance completed and t falls inside [Tenter, Texit). This is the
// Table II line-7 guard: it is false for active instances (Texit == 0)
// and, because time is monotonic, also false once the node has been
// recycled for a later construct.
func (c *Construct) InWindow(t int64) bool {
	return c.Tenter <= t && t < c.Texit
}

func (c *Construct) String() string {
	return fmt.Sprintf("%s@%d[%d,%d)", c.Kind, c.Label, c.Tenter, c.Texit)
}

// PoolStats reports pool behaviour for Theorem 1 validation and ablation.
type PoolStats struct {
	// Allocated is the number of nodes the run could use without
	// recycling: the preallocated (or retained) ones plus every node
	// allocated fresh.
	Allocated int64
	// Reused counts acquisitions served by recycling a retired node.
	Reused int64
	// Rotations counts head nodes that were probed but still too hot to
	// retire and were moved to the tail.
	Rotations int64
}

// Pool is the lazily-retiring construct pool of Table I. Completed nodes
// are appended at the tail; acquisition probes from the head (the
// longest-dead nodes) and recycles the first retirable one.
//
// The nodes are one slab addressed by int32 index, and the FIFO is a
// ring of indices whose length is a power of two.
type Pool struct {
	nodes    []Construct // slab; nodes[None] is the zero node
	ring     []int32     // FIFO of released node indices
	head     int
	count    int
	prealloc int

	// MaxProbe bounds how many head nodes are examined per acquisition
	// before giving up and allocating fresh (default 32).
	MaxProbe int
	// DisableReuse turns lazy retirement off entirely: every acquisition
	// allocates a fresh node. This is the unbounded-index-tree baseline
	// the paper's Table I algorithm exists to avoid; it is exposed for
	// the ablation benchmarks.
	DisableReuse bool

	stats PoolStats
}

// NewPool creates a pool. Nodes beyond the preallocation are created on
// demand; prealloc (if > 0) warms the pool with that many
// immediately-reusable nodes, mirroring the paper's pre-allocated
// one-million-entry pool.
func NewPool(prealloc int) *Pool {
	prealloc = max(prealloc, 0)
	ring := 4
	for ring < prealloc {
		ring *= 2
	}
	p := &Pool{
		nodes:    make([]Construct, prealloc+1),
		ring:     make([]int32, ring),
		prealloc: prealloc,
		MaxProbe: 32,
	}
	p.fill()
	return p
}

// fill lays the preallocated nodes into the ring in index order and
// restarts the counters.
func (p *Pool) fill() {
	for i := 0; i < p.prealloc; i++ {
		p.ring[i] = int32(i + 1)
	}
	p.head, p.count = 0, p.prealloc
	p.stats = PoolStats{Allocated: int64(p.prealloc)}
}

// Prealloc returns the node count the pool was created with, which Reset
// restores.
func (p *Pool) Prealloc() int { return p.prealloc }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// Node returns the node at index i. The pointer is valid until the next
// Acquire, which may grow the slab.
func (p *Pool) Node(i int32) *Construct { return &p.nodes[i] }

// Reset prepares the pool for a fresh run whose clock restarts at zero,
// leaving it indistinguishable from NewPool(Prealloc()): the pool size
// sets the recycle distance, so a pool left larger or smaller would
// change the profile. Reset clears only the nodes used since the last
// reset. A pool that grew (or still lends nodes, after an aborted run)
// is cut back to its preallocated nodes, keeping the slab's capacity.
// Reuse across runs is accounted like a warm preallocation, so per-run
// Reused/Rotations stats keep their Theorem 1 meaning.
func (p *Pool) Reset() {
	used := int(min(p.stats.Reused+p.stats.Rotations, int64(p.count)))
	if len(p.nodes) != p.prealloc+1 || p.count != p.prealloc || used == p.count {
		p.nodes = p.nodes[:p.prealloc+1]
		clear(p.nodes)
		p.fill()
		return
	}
	// Every node is back in the ring, which the last reset left in
	// ascending index order, wrapping from prealloc to 1. Probes take
	// the untouched nodes first, in that order, and release them to the
	// tail, so the nodes used since are the indices just before the
	// first untouched one, and they sit at the tail. Writing them back
	// there in ascending order, cleared, restores that state: it keeps
	// acquisitions walking the slab in address order run after run.
	mask := len(p.ring) - 1
	v := int(p.ring[p.head]) - used
	if v < 1 {
		v += p.prealloc
	}
	for i := p.count - used; i < p.count; i++ {
		p.ring[(p.head+i)&mask] = int32(v)
		p.nodes[v] = Construct{}
		if v++; v > p.prealloc {
			v = 1
		}
	}
	p.stats = PoolStats{Allocated: int64(p.prealloc)}
}

// Live returns the number of nodes currently sitting in the pool.
func (p *Pool) Live() int { return p.count }

// retirable implements Table I line 4: a node may be recycled at time now
// only if it has been dead at least as long as it was alive.
func retirable(c *Construct, now int64) bool {
	return now-c.Texit >= c.Texit-c.Tenter
}

func (p *Pool) popHead() int32 {
	c := p.ring[p.head]
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.count--
	return c
}

func (p *Pool) push(c int32) {
	if p.count == len(p.ring) {
		// Grow the ring, unrolling it to start at 0.
		grown := make([]int32, 2*len(p.ring))
		n := copy(grown, p.ring[p.head:])
		copy(grown[n:], p.ring[:p.head])
		p.ring, p.head = grown, 0
	}
	p.ring[(p.head+p.count)&(len(p.ring)-1)] = c
	p.count++
}

// Acquire returns the index of an initialized construct node for a
// construct headed at label, entering at time now under parent.
func (p *Pool) Acquire(now int64, label int32, kind Kind, popPC int32, parent int32) int32 {
	c := None
	probes := p.MaxProbe
	if probes <= 0 {
		probes = 1
	}
	if p.DisableReuse {
		probes = 0
	}
	for i := 0; i < probes && p.count > 0; i++ {
		cand := p.popHead()
		if retirable(&p.nodes[cand], now) {
			c = cand
			p.stats.Reused++
			break
		}
		// Still hot: rotate to the tail and try the next-oldest.
		p.push(cand)
		p.stats.Rotations++
	}
	if c == None {
		c = int32(len(p.nodes))
		p.nodes = append(p.nodes, Construct{})
		p.stats.Allocated++
	}
	p.nodes[c] = Construct{Tenter: now, Label: label, Parent: parent, PopPC: popPC, Kind: kind}
	return c
}

// Release returns a completed node to the pool tail (lazy retiring: reuse
// is attempted from the head, so a node stays referenceable as long as
// possible).
func (p *Pool) Release(c int32) { p.push(c) }
