package main

import (
	"fmt"

	"webssari"
)

// fileResult is one verdict as the program delivered it.
type fileResult struct {
	File     string `json:"file"` // relative to the input root
	Verdict  string `json:"verdict"`
	Symptoms int    `json:"symptoms"`
	Groups   int    `json:"groups"`
}

// checkAnswers compares one complete pass over the projects with the
// generator's known answers and returns how many files are right and a
// description of every mismatch. A file is right when
//   - its verdict is unsafe if it is one of its project's seeded
//     vulnerable files and safe otherwise (incomplete is never right),
//   - it reports no symptoms and no groups when it has no seeded flaw,
//   - and its project's symptoms and groups add up to the profile's TS
//     and BMC counts (Figure 10's columns).
//
// A project whose totals are wrong makes every one of its files wrong.
func checkAnswers(projects []project, got map[string]fileResult) (ok int, problems []string) {
	for _, p := range projects {
		vulnerable := make(map[string]bool, len(p.Vulnerable))
		for _, f := range p.Vulnerable {
			vulnerable[f] = true
		}
		var symptoms, groups int
		right := make([]bool, len(p.Files))
		for i, f := range p.Files {
			r, found := got[f]
			if !found {
				problems = append(problems, fmt.Sprintf("%s: no verdict", f))
				continue
			}
			symptoms += r.Symptoms
			groups += r.Groups
			want := webssari.VerdictSafe
			if vulnerable[f] {
				want = webssari.VerdictUnsafe
			}
			switch {
			case r.Verdict != want:
				problems = append(problems, fmt.Sprintf("%s: verdict %s, want %s", f, r.Verdict, want))
			case !vulnerable[f] && (r.Symptoms != 0 || r.Groups != 0):
				problems = append(problems, fmt.Sprintf("%s: %d symptom(s) and %d group(s) in a file without seeded flaws",
					f, r.Symptoms, r.Groups))
			default:
				right[i] = true
			}
		}
		if symptoms != p.TS || groups != p.BMC {
			problems = append(problems, fmt.Sprintf("project %s: %d symptom(s) and %d group(s), want TS=%d BMC=%d",
				p.Name, symptoms, groups, p.TS, p.BMC))
			continue
		}
		for _, r := range right {
			if r {
				ok++
			}
		}
	}
	return ok, problems
}

// resultsByFile indexes a pass's verdicts by file, reporting a file
// verdicted twice as a problem.
func resultsByFile(results []fileResult) (map[string]fileResult, []string) {
	got := make(map[string]fileResult, len(results))
	var problems []string
	for _, r := range results {
		if _, dup := got[r.File]; dup {
			problems = append(problems, fmt.Sprintf("%s: verdicted twice", r.File))
		}
		got[r.File] = r
	}
	return got, problems
}
