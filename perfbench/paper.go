package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"alchemist"
	"alchemist/internal/core"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
)

// paperSuite is the library-level closed loop of one caller: each pass
// runs Engine.Profile and Engine.Run once on each of the 8 embedded
// workloads at DefaultScale, in a seeded order. Compilation is set-up.
// Dispatch, tracer hooks, indexing and shadow memory do nearly all the
// work, so this is the paper's Table III question. One op is one pass.
type paperSuite struct {
	seed uint64

	eng    *alchemist.Engine
	wls    []*progs.Workload
	progs  []*alchemist.Program
	inputs [][]int64

	// last holds each workload's most recent outputs, checked after the
	// run; first holds the first pass's, which every later pass must
	// repeat.
	first, last []paperOut
}

type paperOut struct {
	prof *core.Profile
	run  *alchemist.RunResult
}

func newPaperSuite(seed uint64) *paperSuite { return &paperSuite{seed: seed} }

func (s *paperSuite) setup() error {
	ctx := context.Background()
	s.eng = alchemist.NewEngine(alchemist.WithWorkers(2))
	s.wls = progs.All()
	s.progs, s.inputs = nil, nil
	for _, w := range s.wls {
		p, err := s.eng.Compile(ctx, w.Name+".mc", w.Source)
		if err != nil {
			return fmt.Errorf("compile %s: %w", w.Name, err)
		}
		s.progs = append(s.progs, p)
		s.inputs = append(s.inputs, w.InputFor(0))
	}
	s.first = make([]paperOut, len(s.wls))
	s.last = make([]paperOut, len(s.wls))
	return nil
}

func (s *paperSuite) close() {}

func (s *paperSuite) engineRegistry() *obs.Registry { return s.eng.Metrics() }

func (s *paperSuite) sources() []source { return paperSources() }

// run makes whole passes until d has passed, so every run weighs the 8
// workloads equally. One op is one pass; each pass is also one window.
func (s *paperSuite) run(d time.Duration, log *spanLog) *phase {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(s.seed, 0xba5e))
	order := make([]int, len(s.wls))
	for i := range order {
		order[i] = i
	}
	p := &phase{clock: []cpuSample{sampleCPU()}}
	start := time.Now()
	for time.Since(start) < d {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		p.attempted++
		failed := p.failed
		var op opRec
		passStart := time.Now()
		for _, i := range order {
			w := s.wls[i]
			cfg := alchemist.RunConfig{Input: s.inputs[i], MemWords: w.MemWords}

			id := log.begin("Engine.Profile", w.Name, -1)
			t0 := time.Now()
			prof, res, err := s.eng.Profile(ctx, s.progs[i], alchemist.ProfileConfig{RunConfig: cfg})
			el := time.Since(t0)
			log.end(id)
			if err != nil {
				p.fail("%s profile: %v", w.Name, err)
			} else {
				op.profSteps += res.Steps
				op.profTime += el
				s.record(p, i, paperOut{prof: prof, run: res}, true)
			}

			id = log.begin("Engine.Run", w.Name, -1)
			t0 = time.Now()
			res, err = s.eng.Run(ctx, s.progs[i], cfg)
			el = time.Since(t0)
			log.end(id)
			if err != nil {
				p.fail("%s run: %v", w.Name, err)
			} else {
				op.runSteps += res.Steps
				op.runTime += el
				s.record(p, i, paperOut{run: res}, false)
			}
		}
		op.end = time.Now()
		op.lat = op.end.Sub(passStart)
		if p.failed > failed {
			p.failed = failed + 1 // one failed pass is one failed op
		} else {
			p.done = append(p.done, op)
		}
		p.clock = append(p.clock, sampleCPU())
	}
	p.elapsed = time.Since(start)
	return p
}

// record keeps an op's outputs and checks the cheap parts against the
// first pass; full digests are checked once, after the run.
func (s *paperSuite) record(p *phase, i int, o paperOut, profiled bool) {
	f, l := &s.first[i], &s.last[i]
	if profiled {
		if f.prof == nil {
			f.prof = o.prof
		} else if o.prof.TotalSteps != f.prof.TotalSteps || o.prof.DynamicConstructs != f.prof.DynamicConstructs {
			p.fail("%s: profile changed between passes", s.wls[i].Name)
		}
		l.prof = o.prof
		return
	}
	if f.run == nil {
		f.run = o.run
	} else if o.run.Ret != f.run.Ret || o.run.Steps != f.run.Steps || !slices.Equal(o.run.Output, f.run.Output) {
		p.fail("%s: run result changed between passes", s.wls[i].Name)
	}
	l.run = o.run
}

func (s *paperSuite) verify() []string {
	o := newOracle()
	var bad []string
	for i, w := range s.wls {
		l := s.last[i]
		if l.prof == nil || l.run == nil {
			continue // the op failed and was counted already
		}
		key := digestKey(w, 0)
		if got, want := digestProfile(l.prof), recordedDigests[key]; got != want {
			bad = append(bad, fmt.Sprintf("%s: Engine.Profile digest %.12s, recorded %.12s", key, got, want))
		}
		ref, err := o.interp(workloadSource(w, 0))
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: interp: %v", key, err))
			continue
		}
		if e := checkRun(key+" Engine.Run vs interp", l.run.Ret, l.run.Output, len(l.run.Output), ref.Ret, ref.Output); e != "" {
			bad = append(bad, e)
		}
		if l.run.Steps != l.prof.TotalSteps {
			bad = append(bad, fmt.Sprintf("%s: Engine.Run took %d steps, Engine.Profile %d", key, l.run.Steps, l.prof.TotalSteps))
		}
	}
	return bad
}

func (s *paperSuite) layers(*spanLog, metrics, *phase) {}
