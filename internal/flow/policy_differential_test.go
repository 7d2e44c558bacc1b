package flow

// Differential tests for the policy subsystem's compatibility guarantee:
// the default policy wraps the seed prelude without re-declaring it, so
// building under Options{Policy: policy.Default()} must produce an
// abstract interpretation byte-identical to the bare default prelude —
// across the whole differential corpus and the bundled examples. This is
// the invariant that lets every policy-free run keep its exact seed
// behavior while policies layer context rules on top.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/php/parser"
	"webssari/internal/policy"
	"webssari/internal/prelude"
)

func buildIR(t *testing.T, name string, src []byte, opts Options) *ai.Program {
	t.Helper()
	res := parser.Parse(name, src)
	prog, err := Build(res.File, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return prog
}

// compareAI asserts two abstract interpretations are byte-identical:
// same printed program, warnings, branch count, initial types, and
// truncation state.
func compareAI(t *testing.T, want, got *ai.Program) {
	t.Helper()
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("AI programs differ\n--- want ---\n%s\n--- got ---\n%s", w, g)
	}
	if g, w := strings.Join(got.Warnings, "\n"), strings.Join(want.Warnings, "\n"); g != w {
		t.Errorf("warnings differ\n--- want ---\n%s\n--- got ---\n%s", w, g)
	}
	if got.Branches != want.Branches {
		t.Errorf("branch count: got %d, want %d", got.Branches, want.Branches)
	}
	if got.Truncated != want.Truncated {
		t.Errorf("truncated: got %v, want %v", got.Truncated, want.Truncated)
	}
	if len(got.InitialTypes) != len(want.InitialTypes) {
		t.Errorf("initial types: got %d entries, want %d", len(got.InitialTypes), len(want.InitialTypes))
	}
	for name, w := range want.InitialTypes {
		if g, ok := got.InitialTypes[name]; !ok || g != w {
			t.Errorf("initial type %q: got %v (present %v), want %v", name, g, ok, w)
		}
	}
}

func TestDefaultPolicyByteIdenticalCorpus(t *testing.T) {
	for _, src := range differentialSources {
		src := src
		t.Run(src[:min(len(src), 40)], func(t *testing.T) {
			bare := buildIR(t, "diff.php", []byte(src), Options{Prelude: prelude.Default()})
			pol := buildIR(t, "diff.php", []byte(src), Options{Policy: policy.Default()})
			compareAI(t, bare, pol)
			if pol.Policy != policy.DefaultName {
				t.Errorf("Policy label = %q, want %q", pol.Policy, policy.DefaultName)
			}
		})
	}
}

func TestDefaultPolicyByteIdenticalExamples(t *testing.T) {
	for _, name := range exampleFiles(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(examplesDir, name))
			if err != nil {
				t.Fatal(err)
			}
			bare := buildIR(t, name, src, Options{Prelude: prelude.Default(), Dir: examplesDir, Loader: os.ReadFile})
			pol := buildIR(t, name, src, Options{Policy: policy.Default(), Dir: examplesDir, Loader: os.ReadFile})
			compareAI(t, bare, pol)
		})
	}
}
