package main

import (
	"slices"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/interp"
	"alchemist/internal/vm"
)

// TestGeneratedProgramsKnownResult checks the generator's own result
// against both the VM and the reference interpreter, and that every
// program stays in the hundreds-to-thousands step band.
func TestGeneratedProgramsKnownResult(t *testing.T) {
	g := NewGenerator(7)
	progs := g.HotSet(2 * len(templates))
	for i := 0; i < 24; i++ {
		progs = append(progs, g.Cold())
	}
	for _, p := range progs {
		ir, err := compile.BuildConfig(p.Name, p.Source, compile.Config{})
		if err != nil {
			t.Fatalf("%s: compile: %v\n%s", p.Name, err, p.Source)
		}
		m, err := vm.New(ir, vm.Config{Input: p.Input, MemWords: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", p.Name, err)
		}
		if res.Ret != p.Ret || !slices.Equal(res.Output, p.Output) {
			t.Errorf("%s: vm ret=%d out=%v, generator says ret=%d out=%v\n%s",
				p.Name, res.Ret, res.Output, p.Ret, p.Output, p.Source)
		}
		ref, err := interp.Run(p.Name, p.Source, interp.Config{Input: p.Input})
		if err != nil {
			t.Fatalf("%s: interp: %v", p.Name, err)
		}
		if ref.Ret != p.Ret || !slices.Equal(ref.Output, p.Output) {
			t.Errorf("%s: interp ret=%d out=%v, generator says ret=%d out=%v", p.Name, ref.Ret, ref.Output, p.Ret, p.Output)
		}
		if res.Steps < 100 || res.Steps > 20000 {
			t.Errorf("%s: %d steps, want hundreds to a few thousand", p.Name, res.Steps)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := NewGenerator(3).HotSet(8), NewGenerator(3).HotSet(8)
	c := NewGenerator(4).HotSet(8)
	for i := range a {
		if a[i].Source != b[i].Source || !slices.Equal(a[i].Input, b[i].Input) {
			t.Fatalf("program %d differs under the same seed", i)
		}
	}
	same := 0
	for i := range a {
		if a[i].Source == c[i].Source {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("a different seed produced the same hot set")
	}
	seen := map[string]bool{}
	g := NewGenerator(3)
	for _, p := range g.HotSet(8) {
		seen[p.Source] = true
	}
	for i := 0; i < 50; i++ {
		p := g.Cold()
		if seen[p.Source] {
			t.Fatalf("cold program %d repeats an earlier source", i)
		}
		seen[p.Source] = true
	}
}
