package core

import (
	"alchemist/internal/indexing"
	"alchemist/internal/shadow"
)

// Scratch holds the per-run profiling buffers that dominate allocation
// churn — the shadow memory and the construct pool — so back-to-back
// profiling runs can recycle them instead of reallocating megabytes per
// job. A Scratch may be used by at most one profiler at a time: keep one
// per concurrent profiler (the Engine keeps one per worker slot). Both
// buffers are pointer-free and reset in time proportional to what the
// previous run used, so a retained Scratch costs the collector nothing
// and a small run on it costs next to nothing.
// The zero value is ready: buffers are created on first use and replaced
// whenever a run's geometry (memory extent, reader slots, pool size) is
// incompatible with the retained ones.
type Scratch struct {
	shadow *shadow.Memory
	pool   *indexing.Pool
	// built is the node count of a pool the last acquire had to create.
	built int64
}

// acquire returns reset-or-fresh buffers for a run over memWords of flat
// memory with the given reader-slot bound, retaining them in the Scratch
// for the next acquire. A retained construct pool is reused only when it
// was created with prealloc nodes; Reset then makes it indistinguishable
// from a fresh NewPool(prealloc), as the pool size sets the recycle
// distance.
func (s *Scratch) acquire(memWords int64, readerSlots, prealloc int) (*indexing.Pool, *shadow.Memory) {
	wantSlots := readerSlots
	if wantSlots <= 0 {
		wantSlots = shadow.DefaultReaderSlots
	}
	if s.shadow != nil && s.shadow.Words() >= memWords && s.shadow.Slots() == wantSlots {
		s.shadow.Reset()
	} else {
		s.shadow = shadow.New(memWords, readerSlots)
	}
	prealloc = max(prealloc, 0)
	s.built = 0
	if s.pool != nil && s.pool.Prealloc() == prealloc {
		s.pool.Reset()
	} else {
		s.pool = indexing.NewPool(prealloc)
		s.built = int64(prealloc)
	}
	return s.pool, s.shadow
}

// NodesCreated reports how many construct nodes the last run on s
// created: the preallocation when s had to build its pool, plus every
// node the run allocated beyond it. A run on a retained pool that never
// outgrew it created none.
func (s *Scratch) NodesCreated() int64 {
	if s.pool == nil {
		return 0
	}
	return s.built + s.pool.Stats().Allocated - int64(s.pool.Prealloc())
}
