package ir_test

import (
	"testing"

	"webssari/internal/ir"
	"webssari/internal/php/parser"
)

// FuzzLower drives the lowering on arbitrary bytes. Invariants: no
// panic; a non-nil unit for every parse result; printing and
// fingerprinting total; and lowering deterministic (two lowerings of one
// AST fingerprint identically). The seed corpus is FuzzVerify's plus the
// closure and foreach-by-reference constructs.
func FuzzLower(f *testing.F) {
	seeds := []string{
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
		`<?php $f = function ($a) use (&$acc) { return $a; }; echo $f($_GET['x']);`,
		`<?php foreach ($rows as $k => &$v) { $v = $_GET['x']; } echo $rows;`,
		`<?php class C { function m($v) { return $v; } } $o = new C(); echo $o->m($_POST['y']);`,
		`<?php do { $x = $_POST['b']; } while ($x); echo $x;`,
		`<?php switch($x){case 1: break 2; default: exit;}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res := parser.Parse("fuzz.php", []byte(src))
		unit, err := ir.Lower(res.File)
		if err != nil {
			t.Fatalf("Lower error (must be total): %v", err)
		}
		if unit == nil {
			t.Fatal("nil unit")
		}
		_ = unit.String()
		fps := unit.Fingerprints()

		again, err := ir.Lower(res.File)
		if err != nil {
			t.Fatalf("second Lower error: %v", err)
		}
		for key, fp := range again.Fingerprints() {
			if fps[key] != fp {
				t.Fatalf("nondeterministic fingerprint for %q: %q vs %q", key, fps[key], fp)
			}
		}
	})
}
