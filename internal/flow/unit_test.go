package flow

// Behavior tests for the subset widening the IR front end enables:
// closures/anonymous functions (inlined like named functions when the
// call target is statically bound) and foreach by reference (weak
// update of the iterated subject). TestDynamicSoundness in the root
// package also runs these sources and checks every concrete leak is
// reported.

import (
	"strings"
	"testing"
)

func TestClosureInlinedThroughVariable(t *testing.T) {
	p := build(t, `<?php
$f = function ($a) { return $a; };
echo $f($_GET['x']);`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (taint flows through closure)\n%s", len(vs), p)
	}
}

func TestClosureSanitizes(t *testing.T) {
	p := build(t, `<?php
$clean = function ($a) { return htmlspecialchars($a); };
echo $clean($_GET['x']);`)
	if vs := violations(p); len(vs) != 0 {
		t.Fatalf("violations = %d, want 0 (closure sanitizes)\n%s", len(vs), p)
	}
}

func TestImmediatelyInvokedClosure(t *testing.T) {
	p := build(t, `<?php echo call_user_func(function () { return 'const'; });`)
	// call_user_func is not modeled; the closure literal itself is the
	// interesting case:
	p = build(t, `<?php $x = function ($v) { return $v; }; echo $x($_POST['y']);`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1\n%s", len(vs), p)
	}
}

func TestClosureCapturesByValue(t *testing.T) {
	// By-value capture snapshots the outer variable at closure creation…
	p := build(t, `<?php
$prefix = $_GET['p'];
$render = function ($body) use ($prefix) { echo $prefix . $body; };
$render('safe');`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (tainted capture reaches sink)\n%s", len(vs), p)
	}
}

func TestClosureCaptureByRefWritesBack(t *testing.T) {
	p := build(t, `<?php
$acc = '';
$add = function () use (&$acc) { $acc = $_GET['x']; };
$add();
echo $acc;`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (by-ref capture writes taint back)\n%s", len(vs), p)
	}
}

func TestClosureBindingInvalidatedByReassignment(t *testing.T) {
	// After $f is overwritten with a non-closure, calling $f(...) is a
	// dynamic call again: approximated as the join of its arguments,
	// with a warning — not silently inlined from the stale binding.
	p := build(t, `<?php
$f = function ($a) { return htmlspecialchars($a); };
$f = $_GET['which'];
echo $f($_GET['x']);`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (stale closure binding must not sanitize)\n%s", len(vs), p)
	}
	found := false
	for _, w := range p.Warnings {
		if strings.Contains(w, "dynamic call target") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a dynamic-call warning, got %q", p.Warnings)
	}
}

func TestBareClosureValueIsInert(t *testing.T) {
	// A closure value reaching a sink directly is not tainted data.
	p := build(t, `<?php echo function () { return 1; };`)
	if vs := violations(p); len(vs) != 0 {
		t.Fatalf("violations = %d, want 0\n%s", len(vs), p)
	}
}

func TestForeachByRefTaintsSubject(t *testing.T) {
	p := build(t, `<?php
$rows = array('a', 'b');
foreach ($rows as &$row) { $row = $_GET['x']; }
echo $rows;`)
	if vs := violations(p); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (by-ref body write flows to subject)\n%s", len(vs), p)
	}
}

func TestForeachByValueDoesNotTaintSubject(t *testing.T) {
	p := build(t, `<?php
$rows = array('a', 'b');
foreach ($rows as $row) { $row = $_GET['x']; }
echo $rows;`)
	if vs := violations(p); len(vs) != 0 {
		t.Fatalf("violations = %d, want 0 (by-value writes stay local)\n%s", len(vs), p)
	}
}

func TestForeachByRefSanitizerWeakUpdate(t *testing.T) {
	// The subject update is a weak join: sanitizing each element cannot
	// prove the whole array clean (the selection may not execute).
	p := build(t, `<?php
$rows = array($_GET['a']);
foreach ($rows as &$row) { $row = htmlspecialchars($row); }
echo $rows;`)
	if vs := violations(p); len(vs) == 0 {
		t.Fatalf("violations = 0, want >0 (weak update keeps the tainted join)\n%s", p)
	}
}
