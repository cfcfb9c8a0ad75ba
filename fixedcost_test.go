package alchemist_test

import (
	"runtime"
	"testing"

	"alchemist"
)

// bytesPerOp returns the heap bytes one call of fn allocates, averaged
// over n calls.
func bytesPerOp(n int, fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestTrivialFixedCost bounds what a run costs before its first
// instruction. At the default MemWords (32 MiB of addressable memory),
// running `return 7` and profiling it on a warmed Engine must each
// allocate well under 1 MB: memory grows on demand, and the worker
// slot's scratch is reset in proportion to what the last run used.
func TestTrivialFixedCost(t *testing.T) {
	const limit = 1 << 20
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	prog, err := eng.Compile(bg, "trivial.mc", "int main() { return 7; }")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if res, err := eng.Run(bg, prog, alchemist.RunConfig{}); err != nil || res.Ret != 7 {
			t.Fatalf("Run = %v, %v", res, err)
		}
	}
	profile := func() {
		if _, res, err := eng.Profile(bg, prog, alchemist.ProfileConfig{}); err != nil || res.Ret != 7 {
			t.Fatalf("Profile = %v, %v", res, err)
		}
	}
	profile() // warm the worker slot's scratch
	runBytes, profileBytes := bytesPerOp(100, run), bytesPerOp(100, profile)
	t.Logf("Engine.Run %d B/op, warmed Engine.Profile %d B/op", runBytes, profileBytes)
	if runBytes >= limit {
		t.Errorf("Engine.Run allocates %d B/op, want < %d", runBytes, limit)
	}
	if profileBytes >= limit {
		t.Errorf("warmed Engine.Profile allocates %d B/op, want < %d", profileBytes, limit)
	}
}
