package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/profile_digests.txt from the current profiler")

const digestsFile = "testdata/profile_digests.txt"

// goldenVariants are the profiler configurations the digests pin: a pool
// small enough to recycle heads, the full profile, RAW only, and a single
// reader slot per word (evictions).
var goldenVariants = []struct {
	name string
	opts func() core.Options
}{
	{"pool64", func() core.Options { o := core.DefaultOptions(); o.PoolPrealloc = 64; return o }},
	{"full", core.DefaultOptions},
	{"raw", func() core.Options { o := core.DefaultOptions(); o.TrackWAR, o.TrackWAW = false, false; return o }},
	{"slots1", func() core.Options { o := core.DefaultOptions(); o.ReaderSlots = 1; return o }},
}

// profileDigest hashes everything a profile exports: the WriteJSON bytes,
// the direct-nesting counters in key order, the construct counts and the
// pool and shadow statistics.
func profileDigest(t *testing.T, p *core.Profile) string {
	t.Helper()
	h := sha256.New()
	if err := report.WriteJSON(h, p); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, len(p.NestDirect))
	for k := range p.NestDirect {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		binary.Write(h, binary.LittleEndian, [2]uint64{k, uint64(p.NestDirect[k])})
	}
	fmt.Fprintf(h, "static=%d dynamic=%d pool=%+v shadow=%+v",
		p.StaticConstructs, p.DynamicConstructs, p.Pool, p.Shadow)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (record with -update-digests)", err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			want[f[0]] = f[1]
		}
	}
	return want
}

// TestGoldenProfileDigests pins every exported part of the profile of
// each paper workload at its default scale and at scale 1, under four
// profiler configurations, to digests recorded from an earlier profiler.
// A change to the profiler's internal data structures must keep them.
func TestGoldenProfileDigests(t *testing.T) {
	var want map[string]string
	if !*updateDigests {
		want = readDigests(t)
	}
	var got []string
	for _, w := range progs.All() {
		prog, err := compile.Build(w.Name+".mc", w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{0, 1} {
			if scale == 0 && raceEnabled {
				continue // default scales take minutes under the race detector
			}
			cfg := vm.Config{Input: w.InputFor(scale), MemWords: w.MemWords}
			for _, v := range goldenVariants {
				name := fmt.Sprintf("%s@%d/%s", w.Name, scale, v.name)
				p, _, err := core.ProfileProgram(prog, cfg, v.opts())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				d := profileDigest(t, p)
				got = append(got, name+" "+d)
				if want != nil && want[name] != d {
					t.Errorf("%s: digest %s, want %s", name, d, want[name])
				}
			}
		}
	}
	if *updateDigests {
		out := "# name@scale/variant sha256 (scale 0 is the workload's DefaultScale)\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(digestsFile, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFinishIsIdempotent: Finish builds every exported structure afresh,
// so a second call returns an equal profile that shares nothing mutable
// with the first.
func TestFinishIsIdempotent(t *testing.T) {
	w := progs.Gzip()
	prog, err := compile.Build(w.Name+".mc", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	prof := core.NewProfiler(prog, w.MemWords, core.DefaultOptions())
	m, err := vm.New(prog, vm.Config{Input: w.InputFor(1), MemWords: w.MemWords, Tracer: prof})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	first := prof.Finish()
	want := profileDigest(t, first)
	for k := range first.NestDirect {
		first.NestDirect[k] = -1
	}
	first.Constructs[0].Edges = nil
	if got := profileDigest(t, prof.Finish()); got != want {
		t.Errorf("second Finish digest %s, want %s", got, want)
	}
}
