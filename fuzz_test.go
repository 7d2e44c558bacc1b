package webssari_test

import (
	"testing"
	"time"

	"webssari"
	"webssari/internal/policy"
)

// fuzzVerifySeeds seed FuzzVerify; TestDynamicSoundness runs them too.
var fuzzVerifySeeds = []string{
	`<?php echo $_GET['x'];`,
	`<?php $x = $_POST['a']; if ($x) { $x = htmlspecialchars($x); } echo $x;`,
	`<?php include 'lib.php'; mysql_query("SELECT $q");`,
	`<?php function f($a) { return $a; } echo f($_GET['x']);`,
	`<?php while ($i < 3) { $i = $i + 1; echo htmlspecialchars($s); }`,
	`<?php $x = ; } } if (`,
	"<?php\x00$x=$_GET[1];echo $x;",
	`no php here at all`,
	`<?php $$v = $_GET['x']; echo $$v;`,
	`<?php eval($_REQUEST['c']); exit;`,
}

// FuzzVerify drives the whole pipeline on arbitrary bytes under tight
// resource limits. The invariants: no panic ever escapes (faults come
// back as *EngineError values); any report produced is internally
// consistent — Safe and Incomplete are mutually exclusive, and the
// verdict matches the flags; a complete report is byte-identical to the
// shared-mode report whenever that run completes too; and a complete
// report is sound: when the input parses and runs within the
// interpreter's step budget, no attacker-seeded run leaks taint at a
// sink the report does not list (see TestDynamicSoundness).
func FuzzVerify(f *testing.F) {
	for _, seed := range fuzzVerifySeeds {
		f.Add([]byte(seed))
	}
	pol := policy.Default()

	limits := webssari.WithResourceLimits(webssari.ResourceLimits{
		MaxStatements: 2000,
		MaxCNFVars:    50_000,
		MaxCNFClauses: 200_000,
	})
	f.Fuzz(func(t *testing.T, src []byte) {
		start := time.Now()
		rep, err := webssari.Verify(src, "fuzz.php", limits,
			webssari.WithDeadline(2*time.Second),
			webssari.WithSolverConfig(webssari.SolverConfig{MaxConflicts: 200}), webssari.WithMaxCounterexamples(16))
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("verification ran %v despite a 2s deadline: %q", elapsed, src)
		}
		if err != nil {
			return // structured failure is fine; a panic would have crashed
		}
		if rep == nil {
			t.Fatal("nil report with nil error")
		}
		if rep.Safe && rep.Incomplete {
			t.Fatalf("report both Safe and Incomplete: %+v", rep)
		}
		switch rep.Verdict {
		case webssari.VerdictSafe:
			if !rep.Safe || rep.Incomplete || len(rep.Findings) > 0 {
				t.Fatalf("safe verdict inconsistent: Safe=%v Incomplete=%v findings=%d",
					rep.Safe, rep.Incomplete, len(rep.Findings))
			}
		case webssari.VerdictUnsafe:
			if rep.Safe {
				t.Fatalf("unsafe verdict on a Safe report: %+v", rep)
			}
		case webssari.VerdictIncomplete:
			if !rep.Incomplete || len(rep.Limits) == 0 {
				t.Fatalf("incomplete verdict without causes: %+v", rep)
			}
		default:
			t.Fatalf("unknown verdict %q", rep.Verdict)
		}

		if rep.Incomplete {
			return
		}
		// The sliced per-assert encoding must agree with the unsliced
		// whole-program one. Shared mode's ceilings and budgets cap the
		// whole program, so an incomplete shared run proves nothing.
		shared, err := webssari.Verify(src, "fuzz.php", limits,
			webssari.WithDeadline(2*time.Second),
			webssari.WithSolverConfig(webssari.SolverConfig{Mode: webssari.SolverShared, MaxConflicts: 200}), webssari.WithMaxCounterexamples(16))
		if err == nil && !shared.Incomplete {
			refJSON, refText := stripped(t, rep)
			gotJSON, gotText := stripped(t, shared)
			if gotJSON != refJSON || gotText != refText {
				t.Fatalf("shared report diverges from per-assert:\n got %s\nwant %s\n%q", gotJSON, refJSON, src)
			}
		}

		c := soundCase{name: "fuzz.php", src: src}
		for _, seed := range soundnessSeeds {
			events, err := runAttacked(c, seed)
			if err != nil {
				return // outside the interpreter's subset or step budget
			}
			if leaks, _ := unreported(pol, rep, events); len(leaks) > 0 {
				t.Fatalf("unsound (seed %q): tainted %v with findings %+v\n%q", seed, leaks, rep.Findings, src)
			}
		}
	})
}
