package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"strings"
	"testing"

	"webssari"
)

// answers is a two-project known answer: one project with two seeded
// flaws over three files, one clean project.
func answers() []project {
	return []project{
		{Name: "vuln", TS: 3, BMC: 2, Files: []string{"v/a.php", "v/b.php", "v/c.php"}, Vulnerable: []string{"v/a.php", "v/b.php"}},
		{Name: "clean", Files: []string{"c/a.php"}},
	}
}

func rightResults() map[string]fileResult {
	return map[string]fileResult{
		"v/a.php": {File: "v/a.php", Verdict: webssari.VerdictUnsafe, Symptoms: 2, Groups: 1},
		"v/b.php": {File: "v/b.php", Verdict: webssari.VerdictUnsafe, Symptoms: 1, Groups: 1},
		"v/c.php": {File: "v/c.php", Verdict: webssari.VerdictSafe},
		"c/a.php": {File: "c/a.php", Verdict: webssari.VerdictSafe},
	}
}

func TestOracleAcceptsKnownAnswer(t *testing.T) {
	ok, problems := checkAnswers(answers(), rightResults())
	if ok != 4 || len(problems) != 0 {
		t.Fatalf("ok = %d, problems = %q; want 4 and none", ok, problems)
	}
}

func TestOracleRejectsFlippedVerdict(t *testing.T) {
	for _, file := range []string{"v/a.php", "c/a.php"} {
		got := rightResults()
		r := got[file]
		if r.Verdict == webssari.VerdictSafe {
			r.Verdict = webssari.VerdictUnsafe
		} else {
			r.Verdict = webssari.VerdictSafe
		}
		got[file] = r
		ok, problems := checkAnswers(answers(), got)
		if ok != 3 || len(problems) == 0 {
			t.Errorf("flipping %s: ok = %d, problems = %q; want 3 and a problem", file, ok, problems)
		}
	}
}

func TestOracleRejectsWrongGroupTotal(t *testing.T) {
	got := rightResults()
	r := got["v/b.php"]
	r.Groups = 2
	got["v/b.php"] = r
	ok, problems := checkAnswers(answers(), got)
	// The project's total is wrong, so none of its three files count.
	if ok != 1 || len(problems) != 1 || !strings.Contains(problems[0], "BMC=2") {
		t.Fatalf("ok = %d, problems = %q; want 1 and the project total", ok, problems)
	}
}

func TestOracleRejectsIncompleteAndMissing(t *testing.T) {
	got := rightResults()
	r := got["c/a.php"]
	r.Verdict = webssari.VerdictIncomplete
	got["c/a.php"] = r
	delete(got, "v/c.php")
	ok, problems := checkAnswers(answers(), got)
	// The vulnerable project's totals still hold, so its two flawed
	// files count; the missing and the incomplete file do not.
	if ok != 2 || len(problems) != 2 {
		t.Fatalf("ok = %d, problems = %q; want 2 and two problems", ok, problems)
	}
}

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{serveE2E, batchLayers, serveLayers} {
		for _, d := range defs {
			if !validName.MatchString(d.name) || len(d.name) > 64 {
				t.Errorf("metric name %q does not match %s", d.name, validName)
			}
			if d.unit == "" {
				t.Errorf("metric %s has no unit", d.name)
			}
			seen[d.name] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no metrics declared")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists equal to
// what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, batchE2E}, {spec.PerLayer, batchLayers}} {
		if len(c.list) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program prints %d", len(c.list), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.list[i].Name != d.name || c.list[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the program prints %s (%s)",
					i, c.list[i].Name, c.list[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples (9 beyond it) was not refused")
	}
	if _, err := percentile(samples(10), 50); err == nil {
		t.Error("p50 of 10 samples (5 beyond it) was not refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples was not refused")
	}
	got, err := percentile(samples(1000), 99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := percentile(samples(20), 50); err != nil || got != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", got, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
}

func TestResultNeedsEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for _, d := range batchE2E[1:] {
		values[d.name] = 1
	}
	if _, err := newResult(batchE2E, values, 1, 0); err == nil {
		t.Error("a result missing a metric was accepted")
	}
	values[batchE2E[0].name] = 1
	if _, err := newResult(batchE2E, values, 1, 0); err != nil {
		t.Errorf("a complete result was refused: %v", err)
	}
	values["undeclared"] = 1
	if _, err := newResult(batchE2E, values, 1, 0); err == nil {
		t.Error("a result with an undeclared metric was accepted")
	}
}

// TestGenerateIsSeeded checks that a seed fixes the inputs and another
// seed changes them.
func TestGenerateIsSeeded(t *testing.T) {
	read := func(seed uint64) (*inputSet, string) {
		dir := t.TempDir()
		in, err := generate("serve", seed, dir)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(dir + "/" + in.Projects[0].Files[0])
		if err != nil {
			t.Fatal(err)
		}
		return in, string(data)
	}
	a, srcA := read(7)
	b, srcB := read(7)
	_, srcC := read(8)
	if srcA != srcB || a.fileCount() != b.fileCount() {
		t.Error("the same seed generated different inputs")
	}
	if srcA == srcC {
		t.Error("seeds 7 and 8 generated the same first file")
	}
	if a.fileCount() < serveFiles {
		t.Errorf("serve draw has %d files, want at least %d", a.fileCount(), serveFiles)
	}
}
