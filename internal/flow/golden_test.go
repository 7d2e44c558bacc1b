package flow

// Regression net for the filter: the printed abstract interpretation of
// a fixed corpus is locked in testdata/ai.golden. The golden was written
// while the pre-IR AST walker still existed and a differential test
// proved both front ends byte-identical on every entry, so each entry is
// also that walker's frozen output: the TestDifferential* tests keep
// comparing the IR path against it, entry by entry. Regenerate (only for
// an intended change to F(p)) with
// `go test ./internal/flow -run Differential -update`.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"webssari/internal/ai"
	"webssari/internal/prelude"
)

var update = flag.Bool("update", false, "rewrite golden files")

// differentialSources is a corpus spanning every construct of the
// original PHP subset. The AI golden locks its programs, and the policy
// tests build each entry under two option sets and compare.
var differentialSources = []string{
	`<?php $x = $_GET['a']; echo $x;`,
	`<?php $x = 'hello'; echo $x; echo "const $x";`,
	`<?php $x = $_GET['a']; echo htmlspecialchars($x);`,
	`<?php $a = $_GET['x'] . 'suffix'; mysql_query("SELECT $a");`,
	`<?php if ($c) { $x = $_GET['a']; } else { $x = 'ok'; } echo $x;`,
	`<?php if ($a) { echo 1; } elseif ($b) { echo $_GET['x']; } elseif ($c) { echo 2; } else { echo 3; }`,
	`<?php while ($i < 3) { $i = $i + 1; $x = $_GET['a']; } echo $x;`,
	`<?php do { $x = $_POST['b']; } while ($x); echo $x;`,
	`<?php for ($i = 0; $i < 10; $i = $i + 1) { $s = $s . $_GET['q']; } echo $s;`,
	`<?php foreach ($_POST as $k => $v) { echo $v; }`,
	`<?php switch ($x) { case 1: $y = $_GET['a']; break; default: $y = 'd'; } echo $y;`,
	`<?php function f($a) { return htmlspecialchars($a); } echo f($_GET['x']);`,
	`<?php function g(&$out) { $out = $_GET['x']; } g($y); echo $y;`,
	`<?php function r($n) { return r($n); } echo r($_GET['x']);`,
	`<?php class C { function m($v) { return $v; } } $o = new C($_GET['x']); echo $o->m($_POST['y']);`,
	`<?php $g = $_GET['v']; function uses_global() { global $g; echo $g; } uses_global();`,
	`<?php function s() { static $acc = ''; $acc = $acc . $_GET['x']; echo $acc; } s(); s();`,
	`<?php extract($_REQUEST); echo $whatever;`,
	`<?php $x = $_GET['a']; unset($x); echo $x;`,
	`<?php $x = isset($_GET['a']) ? $_GET['a'] : 'd'; echo $x;`,
	`<?php $x = $_GET['a'] ?: 'd'; echo $x;`,
	`<?php echo $GLOBALS['x']; $GLOBALS['y'] = $_GET['a']; echo $GLOBALS['y'];`,
	`<?php $$v = $_GET['x']; echo $$v;`,
	`<?php $x = (int)$_GET['n']; echo $x; $y = (string)$_GET['s']; echo $y;`,
	`<?php if ($_GET['q']) { exit('bye ' . $_GET['q']); } echo 'alive';`,
	`<?php $x = $_GET['a']; $x .= 'tail'; echo $x;`,
	`<?php list($a, $b) = $arr; echo $a;`,
	`<?php echo "interp {$_GET['x']} and ${name} end";`,
	`<?php $arr[1] = $_GET['a']; $arr['k'] = 'c'; echo $arr[1];`,
	`<?php $o->p = $_GET['a']; echo $o->p;`,
	`<?php include $_GET['page'];`,
	`<?php $x = ; } } if (`,
	`no php at all`,
	`<?php echo unknown_builtin($_GET['x'], 'y');`,
	`<?php $f = 'strtoupper'; echo $f($_GET['x']);`,
	`<?php $x = array($_GET['a'], 'b'); echo $x;`,
	`<?php die(); echo $never;`,
}

// unrollSource has a loop-carried flow that only a second unrolled
// copy exposes; the golden locks it at unroll factors 1..3.
const unrollSource = `<?php while ($c) { $p = $q; $q = $_GET['x']; } echo $p;`

// examplesDir is the bundled example corpus, relative to this package.
var examplesDir = filepath.Join("..", "..", "examples", "php")

// exampleFiles lists the bundled example corpus in directory order.
func exampleFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(examplesDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".php" {
			names = append(names, e.Name())
		}
	}
	return names
}

// writeAI renders everything two equal programs must agree on: the
// printed commands, warnings, branch count, truncation and initial
// types.
func writeAI(sb *strings.Builder, label string, p *ai.Program) {
	fmt.Fprintf(sb, "=== %s\n%s", label, p.String())
	fmt.Fprintf(sb, "branches: %d, truncated: %v\n", p.Branches, p.Truncated)
	for _, w := range p.Warnings {
		fmt.Fprintf(sb, "warning: %s\n", w)
	}
	names := make([]string, 0, len(p.InitialTypes))
	for name := range p.InitialTypes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(sb, "initial $%s: %s\n", name, p.Lat.Name(p.InitialTypes[name]))
	}
}

// aiEntry is one rendered golden entry.
type aiEntry struct{ label, text string }

func renderAI(label string, p *ai.Program) aiEntry {
	var sb strings.Builder
	writeAI(&sb, label, p)
	return aiEntry{label, sb.String()}
}

func corpusLabel(i int) string { return fmt.Sprintf("corpus %d: %q", i, differentialSources[i]) }

func unrollLabel(unroll int) string { return fmt.Sprintf("unroll %d", unroll) }

func exampleLabel(name string) string { return "examples/php/" + name }

// unrollFactors are the loop-unroll settings the golden locks.
var unrollFactors = []int{1, 2, 3}

func corpusEntry(t *testing.T, i int) aiEntry {
	p := buildIR(t, "diff.php", []byte(differentialSources[i]), Options{Prelude: prelude.Default()})
	return renderAI(corpusLabel(i), p)
}

func unrollEntry(t *testing.T, unroll int) aiEntry {
	p := buildIR(t, "unroll.php", []byte(unrollSource), Options{Prelude: prelude.Default(), LoopUnroll: unroll})
	return renderAI(unrollLabel(unroll), p)
}

func exampleEntry(t *testing.T, name string) aiEntry {
	path := filepath.Join(examplesDir, name)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := buildIR(t, path, src, Options{Prelude: prelude.Default(), Dir: examplesDir, Loader: os.ReadFile})
	return renderAI(exampleLabel(name), p)
}

var goldenPath = filepath.Join("testdata", "ai.golden")

// writeGolden renders every entry, in file order, into the golden.
func writeGolden(t *testing.T) {
	t.Helper()
	var sb strings.Builder
	for i := range differentialSources {
		sb.WriteString(corpusEntry(t, i).text)
	}
	for _, unroll := range unrollFactors {
		sb.WriteString(unrollEntry(t, unroll).text)
	}
	for _, name := range exampleFiles(t) {
		sb.WriteString(exampleEntry(t, name).text)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenEntries splits the committed golden into entries by label
// (rewriting it first under -update) and fails on any entry that no
// longer matches a corpus program, unroll factor or example file.
func goldenEntries(t *testing.T) map[string]string {
	t.Helper()
	if *update {
		writeGolden(t)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	entries := make(map[string]string)
	var label string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if l, ok := strings.CutPrefix(line, "=== "); ok {
			label = strings.TrimSuffix(l, "\n")
		}
		entries[label] += line
	}

	known := make(map[string]bool)
	for i := range differentialSources {
		known[corpusLabel(i)] = true
	}
	for _, unroll := range unrollFactors {
		known[unrollLabel(unroll)] = true
	}
	for _, name := range exampleFiles(t) {
		known[exampleLabel(name)] = true
	}
	for label := range entries {
		if !known[label] {
			t.Errorf("stale entry %q in %s", label, goldenPath)
		}
	}
	return entries
}

// checkEntry compares one rendered entry with its golden counterpart.
func checkEntry(t *testing.T, golden map[string]string, got aiEntry) {
	t.Helper()
	if want := golden[got.label]; got.text != want {
		t.Errorf("AI drifted from %s\n--- golden ---\n%s\n--- IR ---\n%s", goldenPath, want, got.text)
	}
}

// TestDifferentialASTvsIR, TestDifferentialLoopUnroll and
// TestDifferentialExamples compare the IR path, entry by entry, with the
// golden: the AST walker's output, frozen when the two were last proved
// byte-identical.
func TestDifferentialASTvsIR(t *testing.T) {
	golden := goldenEntries(t)
	for i, src := range differentialSources {
		t.Run(src[:min(len(src), 40)], func(t *testing.T) {
			checkEntry(t, golden, corpusEntry(t, i))
		})
	}
}

func TestDifferentialLoopUnroll(t *testing.T) {
	golden := goldenEntries(t)
	for _, unroll := range unrollFactors {
		checkEntry(t, golden, unrollEntry(t, unroll))
	}
}

func TestDifferentialExamples(t *testing.T) {
	golden := goldenEntries(t)
	for _, name := range exampleFiles(t) {
		t.Run(name, func(t *testing.T) {
			checkEntry(t, golden, exampleEntry(t, name))
		})
	}
}
