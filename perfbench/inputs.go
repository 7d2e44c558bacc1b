package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"webssari/internal/corpus"
)

// Input sizes. s5Files is the file count the seeded §5 draw stops at
// (about a quarter of the 11,736-file corpus, so one repetition fits a
// run several times over); serveFiles is the daemon workload's drawn set,
// of which serveVulnProjects projects carry seeded flaws.
const (
	s5Files           = 2400
	serveFiles        = 200
	serveVulnProjects = 2
)

// project is one generated project and the generator's known answer for
// it: which files carry seeded flaws, and the Figure-10 style totals
// (TS symptoms, BMC groups) its files must add up to.
type project struct {
	Name       string   `json:"name"`
	TS         int      `json:"ts"`
	BMC        int      `json:"bmc"`
	Files      []string `json:"files"`      // paths relative to the input root, sorted
	Vulnerable []string `json:"vulnerable"` // the files with seeded flaws
}

// inputSet is a workload's generated tree: where it was written and the
// known answers the oracle checks every verdict against.
type inputSet struct {
	Root       string    `json:"root"`
	Projects   []project `json:"projects"`
	Statements int       `json:"statements"`
}

// fileCount returns the number of entry files in the set.
func (in *inputSet) fileCount() int {
	n := 0
	for _, p := range in.Projects {
		n += len(p.Files)
	}
	return n
}

// generate writes the named workload's input tree under root from seed.
// The same (workload, seed) always yields byte-identical files.
func generate(workload string, seed uint64, root string) (*inputSet, error) {
	in := &inputSet{Root: root}
	var profiles []corpus.Profile
	switch workload {
	case "fig10":
		// Exactly the tree phpgen -figure10 writes, with the run's seed in
		// place of phpgen's default generation seed.
		for _, prof := range corpus.Figure10() {
			prof.Files = max(2, prof.TS)
			prof.Statements = max(prof.TS*4+40, 4000)
			profiles = append(profiles, prof)
		}
	case "s5":
		profiles = drawS5(seed)
	case "serve":
		profiles = drawServe(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	for _, prof := range profiles {
		p, stmts, err := writeProject(root, prof, seed)
		if err != nil {
			return nil, err
		}
		in.Projects = append(in.Projects, p)
		in.Statements += stmts
	}
	return in, nil
}

// drawS5 takes the §5 corpus's projects in a seeded order until s5Files
// files are drawn. Every §5 project spreads its statement budget evenly
// over its files (about 97 statements each), so any draw of this size
// has the corpus's per-file shape.
func drawS5(seed uint64) []corpus.Profile {
	var out []corpus.Profile
	files := 0
	for _, prof := range shuffled(corpus.FullCorpus(1), seed) {
		if files >= s5Files {
			break
		}
		out = append(out, prof)
		files += prof.Files
	}
	return out
}

// drawServe takes serveVulnProjects vulnerable §5 projects and then clean
// ones, in a seeded order, until serveFiles files are drawn. Drawing
// whole projects keeps the oracle's project totals checkable.
func drawServe(seed uint64) []corpus.Profile {
	var out []corpus.Profile
	files, vuln := 0, 0
	for _, prof := range shuffled(corpus.FullCorpus(1), seed^0x5e7e) {
		if files >= serveFiles && vuln >= serveVulnProjects {
			break
		}
		switch {
		case prof.Vulnerable() && vuln < serveVulnProjects:
			vuln++
		case !prof.Vulnerable() && files < serveFiles:
		default:
			continue
		}
		out = append(out, prof)
		files += prof.Files
	}
	return out
}

// shuffled returns a seeded Fisher–Yates permutation of profiles.
func shuffled(profiles []corpus.Profile, seed uint64) []corpus.Profile {
	out := append([]corpus.Profile(nil), profiles...)
	rng := newSplitMix(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// writeProject generates one project and writes its files under
// root/<project dir>, returning its known answer and statement count.
func writeProject(root string, prof corpus.Profile, seed uint64) (project, int, error) {
	gen := corpus.Generate(prof, seed)
	dir := dirName(prof.Name)
	p := project{Name: prof.Name, TS: prof.TS, BMC: prof.BMC}
	for _, name := range gen.FileNames() {
		rel := path.Join(dir, name)
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return p, 0, err
		}
		if err := os.WriteFile(full, gen.Sources[name], 0o644); err != nil {
			return p, 0, err
		}
		p.Files = append(p.Files, rel)
	}
	for _, name := range gen.VulnerableFiles {
		p.Vulnerable = append(p.Vulnerable, path.Join(dir, name))
	}
	return p, gen.Statements, nil
}

// dirName maps a project name to the directory phpgen would use.
func dirName(name string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
	return strings.Trim(out, "_")
}

// writeManifest and readManifest pass an input set to a child process.
func writeManifest(in *inputSet, file string) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

func readManifest(file string) (*inputSet, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	in := &inputSet{}
	if err := json.Unmarshal(data, in); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", file, err)
	}
	return in, nil
}

// splitMix is SplitMix64, the same generator the corpus package uses, so
// draws are reproducible from the seed alone.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
