package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"webssari/internal/cnf"
	"webssari/internal/flow"
	"webssari/internal/prelude"
	"webssari/internal/sat"
)

func verifyShared(t *testing.T, src string) *Result {
	t.Helper()
	prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
	if len(errs) != 0 {
		t.Fatalf("build: %v", errs)
	}
	res, err := VerifyAIShared(prog, Options{})
	if err != nil {
		t.Fatalf("shared verify: %v", err)
	}
	return res
}

func TestSharedSolverMatchesPerAssert(t *testing.T) {
	sources := []string{
		`<?php echo $_GET['x'];`,
		`<?php $x = 'safe'; echo $x;`,
		`<?php if ($a) { $x = $_GET['q']; } else { $x = 'ok'; } echo $x; mysql_query($x);`,
		`<?php
$x = $_COOKIE['c'];
if ($a) { $x = htmlspecialchars($x); }
echo $x;
echo 'const';`,
		`<?php
$x = $_GET['a'];
if ($s) { exit; }
echo $x;`,
		`<?php
switch ($m) { case 1: $v = $_GET['x']; break; default: $v = 'ok'; }
mysql_query($v);`,
	}
	for i, src := range sources {
		shared := verifyShared(t, src)
		baseline := verify(t, src)
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("source %d:\nshared:   %v\nbaseline: %v", i, got, want)
		}
	}
}

func TestSharedSolverMatchesOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(515))
	for i := 0; i < 80; i++ {
		src := randomProgram(r)
		prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
		if len(errs) != 0 {
			t.Fatalf("iter %d: %v", i, errs)
		}
		if prog.Branches > 12 {
			continue
		}
		shared, err := VerifyAIShared(prog, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		baseline, err := VerifyAI(prog, Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("iter %d mismatch:\nsrc:\n%s\nshared:   %v\nbaseline: %v",
				i, src, got, want)
		}
	}
}

func TestSharedSolverAssumePriorMatchesPerAssert(t *testing.T) {
	// AssumePriorAsserts in shared mode is realized through hold-selector
	// assumptions; the counterexample sets must match the per-assertion
	// encoder, which re-encodes the prior checks as hard constraints.
	sources := []string{
		`<?php echo 1;`,
		`<?php echo $_GET['x']; mysql_query($_GET['x']);`,
		`<?php $x = $_GET['a']; echo $x; echo $x; mysql_query($x);`,
		`<?php
if ($a) { $x = $_GET['q']; } else { $x = 'ok'; }
echo $x;
if ($b) { $y = $_POST['p']; } else { $y = $x; }
mysql_query($y);`,
		`<?php
$x = $_COOKIE['c'];
if ($a) { $x = htmlspecialchars($x); }
echo $x;
mysql_query($x);`,
	}
	for i, src := range sources {
		prog, errs := flow.BuildSource("test.php", []byte(src), flow.Options{Prelude: prelude.Default()})
		if len(errs) != 0 {
			t.Fatalf("source %d: %v", i, errs)
		}
		shared, err := VerifyAIShared(prog, Options{AssumePriorAsserts: true})
		if err != nil {
			t.Fatalf("source %d: shared verify: %v", i, err)
		}
		baseline, err := VerifyAI(prog, Options{AssumePriorAsserts: true})
		if err != nil {
			t.Fatalf("source %d: baseline verify: %v", i, err)
		}
		got := cexKeys(shared)
		want := cexKeys(baseline)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("source %d:\nshared:   %v\nbaseline: %v", i, got, want)
		}
	}
}

func TestSharedSolverBlockingIsolation(t *testing.T) {
	// Two assertions over the same branch structure: blocking clauses from
	// enumerating assert 0 must not hide assert 1's counterexamples.
	res := verifyShared(t, `<?php
if ($a) { $x = $_GET['p']; } else { $x = $_POST['q']; }
echo $x;
mysql_query($x);`)
	if len(res.PerAssert) != 2 {
		t.Fatalf("asserts = %d", len(res.PerAssert))
	}
	for i, ar := range res.PerAssert {
		if len(ar.Counterexamples) != 2 {
			t.Fatalf("assert %d: %d counterexamples, want 2 (selector gating broken)",
				i, len(ar.Counterexamples))
		}
	}
}

// TestSharedSolverStatsArePerAssertion checks that shared mode charges
// each assertion only for its own calls on the shared solver: summed
// over a file where several assertions reach SAT, the per-assertion
// stats must equal the solver's final counters, not a multiple of them.
// The final counters come from replaying the same checks, in order, on
// a solver the test owns.
func TestSharedSolverStatsArePerAssertion(t *testing.T) {
	prog, errs := flow.BuildSource("test.php", []byte(`<?php
$x = $_GET['a'];
if ($c1) { $x = $x . '1'; }
if ($c2) { $x = $x . '2'; }
if ($c3) { $y = $_POST['b']; } else { $y = 'ok'; }
echo $x;
echo $y;
mysql_query($x . $y);`), flow.Options{Prelude: prelude.Default()})
	if len(errs) != 0 {
		t.Fatalf("build: %v", errs)
	}
	p, err := CompileAI(prog)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxCounterexamples: DefaultMaxCEX}
	res, err := SolveShared(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}

	encoded, err := cnf.EncodeAllChecks(p.System, opts.cnfOptions())
	if err != nil {
		t.Fatal(err)
	}
	solver := sat.New()
	if !encoded.F.LoadInto(solver) {
		t.Fatal("shared encoding is trivially unsat")
	}
	var sum sat.Stats
	violated := 0
	for i, ar := range res.PerAssert {
		sum.Add(ar.SolverStats)
		if len(ar.Counterexamples) > 0 {
			violated++
		}
		if encoded.TrivialUnsat[i] {
			continue
		}
		replay := &AssertResult{Assert: ar.Assert}
		if err := enumerateShared(p.System, encoded, solver, i, opts, replay); err != nil {
			t.Fatal(err)
		}
		if replay.SolverStats != ar.SolverStats {
			t.Errorf("assert %d: stats %+v, replay %+v", i, ar.SolverStats, replay.SolverStats)
		}
	}
	if violated < 2 {
		t.Fatalf("%d assertion(s) reached SAT, want several", violated)
	}
	final := solver.Stats()
	if sum.Decisions != final.Decisions || sum.Propagations != final.Propagations ||
		sum.Conflicts != final.Conflicts || sum.LearntClauses != final.LearntClauses {
		t.Fatalf("per-assertion stats sum to %+v, the solver's final counters are %+v", sum, final)
	}
	if sum.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}
