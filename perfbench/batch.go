package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"webssari"
)

// batchRep is what one batch repetition — one fresh process running
// VerifyDir over the whole input tree — reports to the parent.
type batchRep struct {
	// SetupS runs from the parent starting the process to the first file
	// being dispatched.
	SetupS float64 `json:"setup_s"`
	// WallS runs from the first dispatch until VerifyDir returns.
	WallS    float64      `json:"wall_s"`
	Results  []fileResult `json:"results"`
	Failures []string     `json:"failures,omitempty"`

	CacheHits      int     `json:"cache_hits"`
	CacheEvictions int64   `json:"cache_evictions"`
	GoAllocMB      float64 `json:"go_alloc_mb"`
	GoGCCPUS       float64 `json:"go_gc_cpu_s"`
	GoGCCycles     float64 `json:"go_gc_cycles"`
}

var errProbe = errors.New("set-up probe: stop at the first dispatch")

// batchChild verifies the tree under root with VerifyDir at default
// parallelism, per-assert mode, no store and a cold compile cache (the
// process is fresh), noting the first dispatch through the FileVerifier
// seam. With probe set it stops at the first dispatch: a cheap way to
// sample set-up time alone.
func batchChild(root string, started time.Time, probe bool) (*batchRep, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		once  sync.Once
		first time.Time
	)
	verify := func(ctx context.Context, src []byte, name string, opts ...webssari.Option) (*webssari.Report, error) {
		once.Do(func() { first = time.Now() })
		if probe {
			cancel()
			return nil, errProbe
		}
		return webssari.VerifyContext(ctx, src, name, opts...)
	}

	rt0 := readRuntime()
	pr, err := webssari.VerifyDirContext(ctx, root, webssari.WithFileVerifier(verify))
	end := time.Now()
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	if first.IsZero() {
		return nil, fmt.Errorf("no file of %s was dispatched", root)
	}
	rep := &batchRep{SetupS: first.Sub(started).Seconds()}
	if probe {
		return rep, nil
	}
	rep.WallS = end.Sub(first).Seconds()
	for _, f := range pr.Files {
		rel, err := filepath.Rel(root, f.File)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, fileResult{
			File: filepath.ToSlash(rel), Verdict: f.Verdict, Symptoms: f.Symptoms, Groups: f.Groups,
		})
	}
	for _, f := range pr.Failures {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s: %s", f.File, f.Stage, f.Cause))
	}
	rep.CacheHits = pr.CacheHits
	if pr.Profile != nil && pr.Profile.Cache != nil {
		rep.CacheEvictions = pr.Profile.Cache.Evictions
	}
	rep.GoAllocMB = float64(rt1.allocBytes-rt0.allocBytes) / mb
	rep.GoGCCPUS = rt1.gcCPU - rt0.gcCPU
	rep.GoGCCycles = float64(rt1.gcCycles - rt0.gcCycles)
	return rep, nil
}

// setupProbes is how many stop-at-first-dispatch processes a batch run
// starts, on top of its repetitions, to sample set-up time.
const setupProbes = 15

// runBatch measures a batch workload (fig10, s5): repetitions in fresh
// processes until the run's time is spent, each checked against the
// known answers.
func (b *bench) runBatch(in *inputSet) error {
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		var rep batchRep
		if _, err := b.child(&rep, "batch", "-root", in.Root, "-probe"); err != nil {
			return err
		}
		setups = append(setups, rep.SetupS)
	}
	var filesPerS, cpu, rss []float64
	for b.more(len(filesPerS)) {
		var rep batchRep
		usage, err := b.child(&rep, "batch", "-root", in.Root)
		if err != nil {
			return err
		}
		b.checkBatch(in, &rep)
		setups = append(setups, rep.SetupS)
		filesPerS = append(filesPerS, float64(len(rep.Results))/rep.WallS)
		cpu = append(cpu, usage.cpuS)
		rss = append(rss, usage.rssMB)
		symptoms, groups, vulnerable := 0, 0, 0
		for _, r := range rep.Results {
			symptoms += r.Symptoms
			groups += r.Groups
			if r.Verdict == webssari.VerdictUnsafe {
				vulnerable++
			}
		}
		b.logf("rep %d: %d files (%d vulnerable, %d symptoms, %d groups) in %.3fs (%.1f files/s), cpu %.2fs, rss %.1fMB, steal %.2fs, setup %.4fs",
			len(filesPerS), len(rep.Results), vulnerable, symptoms, groups, rep.WallS, filesPerS[len(filesPerS)-1],
			usage.cpuS, usage.rssMB, usage.stealS, rep.SetupS)
	}
	b.values = map[string]float64{
		"files_per_s": median(filesPerS),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"ok_ratio":    b.okRatio(),
		"setup_s":     median(setups),
	}
	return nil
}

// checkBatch runs the oracle over one repetition and enforces the cold
// compile cache the workload definition promises.
func (b *bench) checkBatch(in *inputSet, rep *batchRep) {
	b.attempted += in.fileCount()
	got, problems := resultsByFile(rep.Results)
	problems = append(problems, rep.Failures...)
	ok, wrong := checkAnswers(in.Projects, got)
	b.ok += ok
	b.problem(append(problems, wrong...)...)
	if rep.CacheHits != 0 {
		b.problem(fmt.Sprintf("%d compile-cache hit(s) in a fresh process; the batch workloads must run cold", rep.CacheHits))
	}
}
