package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"alchemist"
	"alchemist/internal/core"
	"alchemist/internal/interp"
	"alchemist/internal/progs"
	"alchemist/internal/report"
)

// recordedDigests maps "workload@scale" to the sha256 of the profile's
// WriteJSON bytes, recorded from the seed code with --record-digests.
//
//go:embed digests.json
var recordedDigestsJSON []byte

var recordedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(recordedDigestsJSON, &m); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return m
}()

// midScales are the input scales async-jobs draws 2-4 of per job: each
// profiles in roughly 5-40 ms, so a job takes tens of milliseconds.
var midScales = map[string][]int{
	"197.parser": {2, 3, 4, 6},
	"bzip2":      {100, 200, 300, 400},
	"gzip":       {200, 300, 400, 600},
	"130.li":     {6, 12, 18, 24},
	"ogg":        {16, 32, 48, 64},
	"aes":        {512, 1024, 1536, 2048},
	"par2":       {128, 256, 384, 512},
	"delaunay":   {100, 200, 300, 400},
}

// smokeScale is the aes scale small-sync mixes in (the CI smoke input).
const smokeScale = 1024

func digestKey(w *progs.Workload, scale int) string {
	if scale == 0 {
		scale = w.DefaultScale
	}
	return fmt.Sprintf("%s@%d", w.Name, scale)
}

// digestProfile hashes the profile's WriteJSON bytes.
func digestProfile(p *core.Profile) string {
	h := sha256.New()
	if err := report.WriteJSON(h, p); err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestJSONProfile hashes a profile received over HTTP the way
// WriteJSON would have written it, so the library, HTTP and batch paths
// compare byte for byte.
func digestJSONProfile(jp *report.JSONProfile) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jp); err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracle computes reference results on the library path with its own
// Engine, memoized: profiles and runs per (workload, scale) and
// interpreter results per program. It is used from one goroutine.
type oracle struct {
	eng      *alchemist.Engine
	profiles map[string]*core.Profile
	runs     map[string]*alchemist.RunResult
	interps  map[string]*interp.Result
}

func newOracle() *oracle {
	return &oracle{
		eng:      alchemist.NewEngine(alchemist.WithWorkers(1)),
		profiles: map[string]*core.Profile{},
		runs:     map[string]*alchemist.RunResult{},
		interps:  map[string]*interp.Result{},
	}
}

// source is one program plus input, as the oracle sees it.
type source struct {
	key      string // memo key
	name     string
	src      string
	input    []int64
	memWords int64
}

// paperSources are the 8 paper workloads at DefaultScale.
func paperSources() []source {
	var out []source
	for _, w := range progs.All() {
		out = append(out, workloadSource(w, 0))
	}
	return out
}

func workloadSource(w *progs.Workload, scale int) source {
	return source{key: digestKey(w, scale), name: w.Name + ".mc", src: w.Source,
		input: w.InputFor(scale), memWords: w.MemWords}
}

func (o *oracle) profile(s source) (*core.Profile, *alchemist.RunResult, error) {
	p, r := o.profiles[s.key], o.runs[s.key]
	if p != nil && r != nil {
		return p, r, nil
	}
	ctx := context.Background()
	prog, err := o.eng.Compile(ctx, s.name, s.src)
	if err != nil {
		return nil, nil, err
	}
	cfg := alchemist.RunConfig{Input: s.input, MemWords: s.memWords}
	p, _, err = o.eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: cfg})
	if err != nil {
		return nil, nil, err
	}
	r, err = o.eng.Run(ctx, prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	o.profiles[s.key], o.runs[s.key] = p, r
	return p, r, nil
}

func (o *oracle) interp(s source) (*interp.Result, error) {
	if r := o.interps[s.key]; r != nil {
		return r, nil
	}
	r, err := interp.Run(s.name, s.src, interp.Config{Input: s.input})
	if err != nil {
		return nil, err
	}
	o.interps[s.key] = r
	return r, nil
}

// checkWorkload checks one (workload, scale) on the library path: the
// profile digest against the recorded one, and the VM's Ret/Output
// against the interpreter. It returns the reference profile and run.
func (o *oracle) checkWorkload(w *progs.Workload, scale int) (*core.Profile, *alchemist.RunResult, []string) {
	s := workloadSource(w, scale)
	p, r, err := o.profile(s)
	if err != nil {
		return nil, nil, []string{fmt.Sprintf("%s: library profile: %v", s.key, err)}
	}
	var bad []string
	want, ok := recordedDigests[s.key]
	if !ok {
		bad = append(bad, fmt.Sprintf("%s: no recorded digest", s.key))
	} else if got := digestProfile(p); got != want {
		bad = append(bad, fmt.Sprintf("%s: library profile digest %s, recorded %s", s.key, got[:12], want[:12]))
	}
	ref, err := o.interp(s)
	if err != nil {
		return p, r, append(bad, fmt.Sprintf("%s: interp: %v", s.key, err))
	}
	if r.Ret != ref.Ret || !slices.Equal(r.Output, ref.Output) {
		bad = append(bad, fmt.Sprintf("%s: vm ret=%d out=%v, interp ret=%d out=%v", s.key, r.Ret, r.Output, ref.Ret, ref.Output))
	}
	return p, r, bad
}

// checkRun compares one wire-form run outcome with the expected result.
func checkRun(what string, ret int64, output []int64, outputLen int, wantRet int64, wantOut []int64) string {
	n := min(len(wantOut), 64) // the server caps output at 64 words
	if ret != wantRet || outputLen != len(wantOut) || !slices.Equal(output, wantOut[:n]) {
		return fmt.Sprintf("%s: ret=%d out=%v (len %d), want ret=%d out=%v (len %d)",
			what, ret, output, outputLen, wantRet, wantOut[:n], len(wantOut))
	}
	return ""
}

// recordDigests profiles every reference input on the library path and
// writes the digests as JSON.
func recordDigests(w io.Writer) error {
	o := newOracle()
	out := map[string]string{}
	add := func(wl *progs.Workload, scale int) error {
		p, _, err := o.profile(workloadSource(wl, scale))
		if err != nil {
			return fmt.Errorf("%s: %w", digestKey(wl, scale), err)
		}
		out[digestKey(wl, scale)] = digestProfile(p)
		return nil
	}
	for _, wl := range progs.All() {
		scales := append([]int{0}, midScales[wl.Name]...)
		if wl.Name == "aes" {
			scales = append(scales, smokeScale)
		}
		for _, sc := range scales {
			if err := add(wl, sc); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
