package webssari_test

// Differential tests for the solver dispatch modes: shared-mode runs
// must produce reports byte-identical (profiles stripped) to the default
// per-assertion solve — solver modes are verdict-neutral by contract,
// and this suite is the contract's teeth.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/corpus"
)

// stripped returns the canonical comparison form of a report: the JSON
// encoding with the profile (the one intentionally nondeterministic
// section) removed, plus the rendered text, which is deterministic and
// compared separately.
func stripped(t *testing.T, rep *webssari.Report) (string, string) {
	t.Helper()
	clone := *rep
	clone.Profile = nil
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(data), rep.Text
}

// examplePHPFiles lists the bundled corpus.
func examplePHPFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("examples", "php"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".php") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatal("no example PHP files found")
	}
	return files
}

// TestSolverModesByteIdentical sweeps the example corpus under every
// built-in policy and asserts that shared mode reproduces the
// per-assertion report byte for byte.
func TestSolverModesByteIdentical(t *testing.T) {
	policies := []string{"default", "xss-context", "ssrf"}
	for _, file := range examplePHPFiles(t) {
		src := readExample(t, file)
		name := "examples/php/" + file
		for _, pol := range policies {
			t.Run(pol+"/"+file, func(t *testing.T) {
				base := []webssari.Option{webssari.WithPolicy(pol)}
				ref, err := webssari.Verify(src, name, base...)
				if err != nil {
					t.Fatalf("per-assert Verify: %v", err)
				}
				refJSON, refText := stripped(t, ref)

				rep, err := webssari.Verify(src, name, append([]webssari.Option{
					webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared}),
				}, base...)...)
				if err != nil {
					t.Fatalf("shared Verify: %v", err)
				}
				gotJSON, gotText := stripped(t, rep)
				if gotJSON != refJSON {
					t.Errorf("shared report diverges from per-assert:\n got %s\nwant %s", gotJSON, refJSON)
				}
				if gotText != refText {
					t.Errorf("shared text diverges from per-assert:\n got %q\nwant %q", gotText, refText)
				}
			})
		}
	}
}

// TestFigure10PerAssertMatchesShared is the full-tree differential for
// the cone-of-influence encoding: on the seed-2004 Figure-10 tree (the
// tree `phpgen -figure10` writes, 970 files), the sliced per-assert
// solve and the whole-program shared solve must produce byte-identical
// file reports, and the totals must stay Figure 10's 969 TS / 578 BMC.
func TestFigure10PerAssertMatchesShared(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies the 970-file Figure-10 tree twice")
	}
	dir := t.TempDir()
	for _, prof := range corpus.Figure10() {
		prof.Files = max(2, prof.TS)
		prof.Statements = max(prof.TS*4+40, 4000)
		proj := corpus.Generate(prof, 2004)
		for _, name := range proj.FileNames() {
			path := filepath.Join(dir, strings.ReplaceAll(prof.Name, " ", "_"), filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, proj.Sources[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	perAssert, err := webssari.VerifyDir(dir)
	if err != nil {
		t.Fatalf("per-assert VerifyDir: %v", err)
	}
	shared, err := webssari.VerifyDir(dir, webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared}))
	if err != nil {
		t.Fatalf("shared VerifyDir: %v", err)
	}
	if perAssert.Symptoms != 969 || perAssert.Groups != 578 {
		t.Errorf("per-assert totals %d TS / %d BMC, want 969 / 578", perAssert.Symptoms, perAssert.Groups)
	}
	if len(perAssert.Files) != 970 || len(perAssert.Failures) != 0 || perAssert.IncompleteFiles != 0 {
		t.Errorf("per-assert run: %d files, %d failures, %d incomplete; want 970, 0, 0",
			len(perAssert.Files), len(perAssert.Failures), perAssert.IncompleteFiles)
	}
	if len(shared.Files) != len(perAssert.Files) {
		t.Fatalf("shared run has %d files, per-assert %d", len(shared.Files), len(perAssert.Files))
	}
	if shared.Symptoms != perAssert.Symptoms || shared.Groups != perAssert.Groups ||
		shared.VulnerableFiles != perAssert.VulnerableFiles || shared.IncompleteFiles != perAssert.IncompleteFiles {
		t.Errorf("totals diverge: shared %d/%d/%d/%d, per-assert %d/%d/%d/%d (TS/BMC/vulnerable/incomplete)",
			shared.Symptoms, shared.Groups, shared.VulnerableFiles, shared.IncompleteFiles,
			perAssert.Symptoms, perAssert.Groups, perAssert.VulnerableFiles, perAssert.IncompleteFiles)
	}
	diverged := 0
	for i, ref := range perAssert.Files {
		refJSON, refText := stripped(t, ref)
		gotJSON, gotText := stripped(t, shared.Files[i])
		if gotJSON != refJSON || gotText != refText {
			if diverged++; diverged <= 3 {
				t.Errorf("%s: shared report diverges from per-assert:\n got %s\nwant %s", ref.File, gotJSON, refJSON)
			}
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d file reports diverge", diverged, len(perAssert.Files))
	}
}

// TestSolverConfigOptionValidation pins the API-surface errors of the
// unified solver configuration.
func TestSolverConfigOptionValidation(t *testing.T) {
	src := []byte("<?php echo 'hi';\n")
	if _, err := webssari.Verify(src, "t.php",
		webssari.WithSolverConfig(webssari.SolverConfig{Mode: "simulated-annealing"})); err == nil {
		t.Fatal("unknown solver mode accepted")
	} else if !strings.Contains(err.Error(), "per-assert") {
		t.Fatalf("error should list the valid modes, got: %v", err)
	}
	// The zero SolverConfig is a no-op, not an error.
	if _, err := webssari.Verify(src, "t.php",
		webssari.WithSolverConfig(webssari.SolverConfig{})); err != nil {
		t.Fatalf("zero SolverConfig should be accepted: %v", err)
	}
}

// TestSharedProfileStages checks that a shared-mode profile accounts
// for its solve: the one whole-program encoding is a single non-zero
// encode stage, and the assertions' SAT calls are a non-zero search
// stage.
func TestSharedProfileStages(t *testing.T) {
	src := readExample(t, "guestbook.php")
	rep, err := webssari.Verify(src, "examples/php/guestbook.php",
		webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != webssari.VerdictUnsafe {
		t.Fatalf("verdict %s, want a vulnerable file", rep.Verdict)
	}
	stages := map[string][2]int64{}
	for _, st := range rep.Profile.Stages {
		stages[st.Name] = [2]int64{st.WallNS, st.Count}
	}
	if enc := stages["encode"]; enc[0] <= 0 || enc[1] != 1 {
		t.Errorf("encode stage = %v ns ×%d, want one non-zero encoding", enc[0], enc[1])
	}
	if search := stages["search"]; search[0] <= 0 || search[1] == 0 {
		t.Errorf("search stage = %v ns ×%d, want non-zero", search[0], search[1])
	}
}
