package alchemist_test

import (
	"bytes"
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
