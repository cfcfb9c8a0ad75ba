package alchemist_test

import (
	"bytes"
	"fmt"
	"testing"

	"alchemist"
	"alchemist/internal/core"
	"alchemist/internal/progs"
	"alchemist/internal/trace"
	"alchemist/internal/vm"
)

// replayVariants pair an Engine profile configuration with the core
// options it stands for.
var replayVariants = []struct {
	name string
	cfg  alchemist.ProfileConfig
	opts func() core.Options
}{
	{"pool64", alchemist.ProfileConfig{PoolPrealloc: 64},
		func() core.Options { o := core.DefaultOptions(); o.PoolPrealloc = 64; return o }},
	{"full", alchemist.ProfileConfig{}, core.DefaultOptions},
	{"raw", alchemist.ProfileConfig{DisableWAR: true, DisableWAW: true},
		func() core.Options { o := core.DefaultOptions(); o.TrackWAR, o.TrackWAW = false, false; return o }},
	{"slots1", alchemist.ProfileConfig{ReaderSlots: 1},
		func() core.Options { o := core.DefaultOptions(); o.ReaderSlots = 1; return o }},
}

// FuzzOnlineVsReplay checks Engine.Profile against the whole-trace
// baseline: recording a workload's events and replaying them into a
// fresh profiler must give the same WriteJSON bytes. One single-worker
// Engine serves every input, so each profile runs on the scratch buffers
// the previous one left behind.
func FuzzOnlineVsReplay(f *testing.F) {
	all := progs.All()
	for wi := range all {
		for vi := range replayVariants {
			f.Add(uint8(wi), uint8(0), uint8(vi))
		}
	}
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	f.Fuzz(func(t *testing.T, wi, scale, vi uint8) {
		w := all[int(wi)%len(all)]
		v := replayVariants[int(vi)%len(replayVariants)]
		input := w.InputFor(1 + int(scale)%3)
		prog, err := eng.Compile(bg, w.Name+".mc", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		cfg := v.cfg
		cfg.Input, cfg.MemWords = input, w.MemWords
		online, _, err := eng.Profile(bg, prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := trace.Record(prog.IR(), vm.Config{Input: input, MemWords: w.MemWords})
		if err != nil {
			t.Fatal(err)
		}
		offline, err := trace.Replay(prog.IR(), rec.Events, w.MemWords, v.opts())
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := alchemist.WriteJSON(&a, online); err != nil {
			t.Fatal(err)
		}
		if err := alchemist.WriteJSON(&b, offline); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s@%d/%s: Engine.Profile differs from the replayed trace", w.Name, 1+int(scale)%3, v.name)
		}
	})
}

// FuzzProfileInvariance checks that retained profiling scratch never
// shows in a profile: on Engines with 1, 2 and 4 workers that live
// across all inputs, a "dirty" workload is profiled first, then
// Engine.Profile and every job of a ProfileBatch of the target workload
// must give the WriteJSON bytes of a fresh core.ProfileProgram. The
// dirty input picks the workload (di%8) and the variant (di/8%4) of the
// profile run first.
func FuzzProfileInvariance(f *testing.F) {
	all := progs.All()
	for wi := range all {
		for vi := range replayVariants {
			f.Add(uint8(wi), uint8(0), uint8(vi), uint8((wi+1)%len(all)+8*((vi+1)%len(replayVariants))))
		}
	}
	engines := []*alchemist.Engine{
		alchemist.NewEngine(alchemist.WithWorkers(1)),
		alchemist.NewEngine(alchemist.WithWorkers(2)),
		alchemist.NewEngine(alchemist.WithWorkers(4)),
	}
	writeJSON := func(t *testing.T, p *alchemist.Profile) []byte {
		var b bytes.Buffer
		if err := alchemist.WriteJSON(&b, p); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, wi, scale, vi, di uint8) {
		w := all[int(wi)%len(all)]
		v := replayVariants[int(vi)%len(replayVariants)]
		dw := all[int(di)%len(all)]
		dv := replayVariants[int(di/8)%len(replayVariants)]
		sc := 1 + int(scale)%3
		input := w.InputFor(sc)

		prog, err := engines[0].Compile(bg, w.Name+".mc", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := core.ProfileProgram(prog.IR(), vm.Config{Input: input, MemWords: w.MemWords}, v.opts())
		if err != nil {
			t.Fatal(err)
		}
		want := writeJSON(t, fresh)

		cfg := v.cfg
		cfg.Input, cfg.MemWords = input, w.MemWords
		dcfg := dv.cfg
		dcfg.Input, dcfg.MemWords = dw.InputFor(1), dw.MemWords
		for _, eng := range engines {
			name := fmt.Sprintf("%s@%d/%s after %s/%s, %d workers", w.Name, sc, v.name, dw.Name, dv.name, eng.Workers())
			prog, err := eng.Compile(bg, w.Name+".mc", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			dirty, err := eng.Compile(bg, dw.Name+".mc", dw.Source)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := eng.Profile(bg, dirty, dcfg); err != nil {
				t.Fatal(err)
			}
			p, _, err := eng.Profile(bg, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(writeJSON(t, p), want) {
				t.Fatalf("%s: Engine.Profile differs from a fresh profiler", name)
			}
			jobs := make([]alchemist.ProfileJob, eng.Workers())
			for i := range jobs {
				jobs[i] = alchemist.ProfileJob{Config: &cfg}
			}
			_, results, err := eng.ProfileBatch(bg, prog, jobs)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if !bytes.Equal(writeJSON(t, r.Profile), want) {
					t.Fatalf("%s: ProfileBatch job %d differs from a fresh profiler", name, r.Job)
				}
			}
		}
	})
}
