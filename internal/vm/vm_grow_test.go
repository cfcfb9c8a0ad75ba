package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/interp"
	"alchemist/internal/vm"
)

// growSrc makes ever larger allocations, each well past the memory in
// use, and keeps reading its first allocation to check that growing
// memory preserves earlier words. Spawned workers write into the arrays
// too, so Parallel mode's up-front memory is exercised as well.
const growSrc = `
int sums[16];
void fill(int a[], int i) {
	for (int j = 0; j < len(a); j += 101) {
		a[j] = i * j + 1;
	}
}
int main() {
	int first[] = alloc(64);
	for (int j = 0; j < 64; j++) {
		first[j] = j * 3;
	}
	int total = 0;
	for (int i = 1; i <= 14; i++) {
		int a[] = alloc(i * 900);
		spawn fill(a, i);
		sync;
		total += a[len(a) - 1] + a[(i * 37) % len(a)] + a[0];
		for (int j = 0; j < 64; j++) {
			total += first[j];
		}
		sums[i] = total;
	}
	for (int i = 0; i < 16; i++) {
		out(sums[i]);
	}
	return total;
}`

// growWords is the heap growSrc allocates in full.
const growWords = 64 + 900*(14*15/2)

var growModes = []struct {
	name string
	cfg  vm.Config
}{
	{"sequential", vm.Config{}},
	{"simworkers", vm.Config{SimWorkers: 3}},
	{"parallel", vm.Config{Parallel: true}},
}

// TestGrowingAllocMatchesInterp: with memory grown on demand, a program
// whose allocations outgrow its memory many times over computes what the
// reference interpreter computes, in every execution mode.
func TestGrowingAllocMatchesInterp(t *testing.T) {
	want, err := interp.Run("grow.mc", growSrc, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Build("grow.mc", growSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range growModes {
		for _, words := range []int64{0, prog.GlobalWords + growWords} {
			cfg := mode.cfg
			cfg.MemWords = words
			m, err := vm.New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Run()
			if err != nil {
				t.Fatalf("%s, MemWords %d: %v", mode.name, words, err)
			}
			if got.Ret != want.Ret || !reflect.DeepEqual(got.Output, want.Output) {
				t.Errorf("%s, MemWords %d: ret %d out %v, interp ret %d out %v",
					mode.name, words, got.Ret, got.Output, want.Ret, want.Output)
			}
			if mode.name == "sequential" && int64(len(m.Mem())) < prog.GlobalWords+growWords {
				t.Errorf("%s: Mem() holds %d words, the run allocated %d", mode.name, len(m.Mem()), prog.GlobalWords+growWords)
			}
		}
	}
}

// TestGrowingAllocTrapsAtCap: MemWords still bounds the memory exactly.
// With one word too few for the last allocation, every mode traps there
// with the same message; with exactly enough, every mode completes.
func TestGrowingAllocTrapsAtCap(t *testing.T) {
	prog, err := compile.Build("grow.mc", growSrc)
	if err != nil {
		t.Fatal(err)
	}
	full := prog.GlobalWords + growWords
	base := full - 14*900
	wantMsg := fmt.Sprintf("runtime error: out of memory: need %d words beyond %d", 14*900, base)
	for _, mode := range growModes {
		cfg := mode.cfg
		cfg.MemWords = full - 1
		m, err := vm.New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		rerr, ok := err.(*vm.RuntimeError)
		if !ok || "runtime error: "+rerr.Msg != wantMsg {
			t.Errorf("%s, MemWords %d: err = %v, want %q", mode.name, full-1, err, wantMsg)
		}
		cfg.MemWords = full
		if m, err = vm.New(prog, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Errorf("%s, MemWords %d: %v", mode.name, full, err)
		}
	}
}
