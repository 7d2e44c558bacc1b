package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestClosureCallThroughVariable(t *testing.T) {
	in := run(t, `<?php
$f = function ($a) { return $a; };
echo $f($_GET['x']);
$clean = function ($a) { return htmlspecialchars($a); };
echo $clean($_GET['x']);`, func(in *Interp) {
		in.SetGet("x", "<script>")
	})
	ev := in.TaintedEvents()
	if len(ev) != 1 || ev[0].Line != 3 {
		t.Fatalf("tainted events = %v, want one at line 3 (line 4 is sanitized)", ev)
	}
	if got := in.Output(); got != "<script>&lt;script&gt;" {
		t.Fatalf("output = %q", got)
	}
}

func TestClosureCapturesByValue(t *testing.T) {
	// The capture is a snapshot: reassigning $prefix after creation does
	// not reach the closure, and writes inside do not leak out.
	in := run(t, `<?php
$prefix = $_GET['p'];
$render = function ($body) use ($prefix) { echo $prefix . $body; $prefix = 'inner'; };
$prefix = 'later';
$render('!');
echo $prefix;`, func(in *Interp) {
		in.SetGet("p", "<b>")
	})
	if got := in.Output(); got != "<b>!later" {
		t.Fatalf("output = %q", got)
	}
	if ev := in.TaintedEvents(); len(ev) != 1 || ev[0].Line != 3 {
		t.Fatalf("tainted events = %v, want the echo inside the closure", ev)
	}
}

func TestClosureCapturesByReference(t *testing.T) {
	in := run(t, `<?php
$acc = '';
$add = function () use (&$acc) { $acc = $acc . $_GET['x']; };
$add();
$add();
echo $acc;`, func(in *Interp) {
		in.SetGet("x", "ab")
	})
	if got := in.Output(); got != "abab" {
		t.Fatalf("output = %q, want both calls' writes", got)
	}
	if ev := in.TaintedEvents(); len(ev) != 1 || ev[0].Line != 6 {
		t.Fatalf("tainted events = %v, want the final echo", ev)
	}
}

func TestForeachByReferenceWritesSubject(t *testing.T) {
	in := run(t, `<?php
$rows = array('a', 'b');
foreach ($rows as &$row) { $row = $row . $_GET['x']; }
echo implode(',', $rows);`, func(in *Interp) {
		in.SetGet("x", "!")
	})
	if got := in.Output(); got != "a!,b!" {
		t.Fatalf("output = %q", got)
	}
	if len(in.TaintedEvents()) != 1 {
		t.Fatalf("by-reference writes must taint the subject: %v", in.Events)
	}
}

// TestEventFileInIncludes runs examples/php/welcome.php, whose tainted
// echo sits on line 6 of the included banner.php while its own line 6
// is a clean echo: only the event's file tells the two apart.
func TestEventFileInIncludes(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "php")
	entry := filepath.Join(dir, "welcome.php")
	src, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	in.Loader = os.ReadFile
	in.SetGet("who", "<script>")
	if err := in.RunSource(entry, src); err != nil {
		t.Fatalf("run: %v", err)
	}
	banner := filepath.Join(dir, "banner.php")
	var got []Event
	for _, ev := range in.Events {
		if ev.Sink == "echo" {
			got = append(got, ev)
		}
	}
	if len(got) != 2 {
		t.Fatalf("echo events = %v, want banner's and welcome's", got)
	}
	if got[0].File != banner || got[0].Line != 6 || !got[0].Tainted {
		t.Errorf("banner echo = %+v, want tainted at %s:6", got[0], banner)
	}
	if got[1].File != entry || got[1].Line != 6 || got[1].Tainted {
		t.Errorf("welcome echo = %+v, want clean at %s:6", got[1], entry)
	}
}

func TestSSRFSinkEvents(t *testing.T) {
	in := run(t, `<?php
$u = $_GET['u'];
$ch = curl_init($u);
curl_setopt($ch, CURLOPT_URL, $u);
$body = file_get_contents(websafe_url($u));
readfile(basename($u));
$h = fopen($u, 'r');
get_headers('http://example.com/');
fsockopen($u, 80);`, func(in *Interp) {
		in.SetGet("u", "http://169.254.169.254/latest")
	})
	want := map[string]bool{"curl_init": true, "curl_setopt": true, "fopen": true, "fsockopen": true}
	for _, ev := range in.Events {
		if ev.Sink != "request" {
			t.Errorf("event %v: want the request channel", ev)
		}
		if ev.Tainted != want[ev.Func] {
			t.Errorf("%s@%d tainted = %v, want %v", ev.Func, ev.Line, ev.Tainted, want[ev.Func])
		}
	}
	if len(in.Events) != 7 {
		t.Fatalf("events = %v, want one per sink call", in.Events)
	}
}

func TestEarlyStopErrors(t *testing.T) {
	in := New()
	in.MaxSteps = 100
	err := in.RunSource("t.php", []byte(`<?php do { echo $_GET['x']; } while (true);`))
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if len(in.Events) == 0 {
		t.Fatal("events before the budget ran out must be kept")
	}
	in = New()
	err = in.RunSource("t.php", []byte(`<?php function r($n) { return r($n); } r(1);`))
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}
