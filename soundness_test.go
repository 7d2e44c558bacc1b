package webssari_test

// The dynamic soundness oracle. WebSSARI's promise is that a file it
// calls safe leaks no taint when it runs. This property tests that claim
// against concrete executions: each program runs in the taint-tracking
// interpreter under attacker-seeded request data, once per input seed so
// conditions take different branches, and every tainted sink event must
// sit at a (file, line) where the static report lists a finding for the
// same sink. Only soundness is checked — the verifier abstracts
// conditions, so it may report flows no run takes.

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/corpus"
	"webssari/internal/php/parser"
	"webssari/internal/policy"
	"webssari/internal/runtime"
)

// soundnessSeeds are the attacker inputs: a script payload, an empty
// string and a truthy "1" (each still tainted), so tests on request data
// go both ways.
var soundnessSeeds = []string{`'"><script>alert(1)</script>`, "", "1"}

// soundnessSteps bounds each run; a run that exhausts it (a do-while on
// a truthy payload, say) still contributes the events it recorded.
const soundnessSteps = 200_000

// soundCase is one program of the oracle corpus.
type soundCase struct {
	name string // file name it runs and verifies under
	src  []byte
	dir  string // include directory; "" disables includes
}

// TestDynamicSoundness runs the oracle over the filter's frozen corpus,
// the closure and foreach-by-reference sources, the FuzzVerify seeds,
// examples/php with includes resolved, and seeded samples of the
// Figure 10 and §5 corpora, under each built-in policy.
func TestDynamicSoundness(t *testing.T) {
	cases := soundnessCorpus(t)
	for _, name := range []string{policy.DefaultName, policy.ContextXSSName, policy.SSRFName} {
		pol, err := policy.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			checked := 0
			for _, c := range cases {
				checked += checkSoundness(t, pol, c)
			}
			t.Logf("%d programs, %d tainted sink events checked", len(cases), checked)
		})
	}
}

// checkSoundness verifies one program under pol, runs it once per seed,
// and reports every tainted policy-sink event without a finding for the
// same sink at its (file, line). It returns the number of events checked.
func checkSoundness(t *testing.T, pol *policy.Compiled, c soundCase) int {
	t.Helper()
	opts := []webssari.Option{webssari.WithPolicy(pol.Name())}
	if c.dir != "" {
		opts = append(opts, webssari.WithLoader(os.ReadFile))
	}
	rep, err := webssari.Verify(c.src, c.name, opts...)
	if err != nil {
		t.Fatalf("%s: verify: %v", c.name, err)
	}

	checked := 0
	for _, seed := range soundnessSeeds {
		events, err := runAttacked(c, seed)
		if err != nil && !errors.Is(err, runtime.ErrStepBudget) && !errors.Is(err, runtime.ErrCallDepth) {
			t.Fatalf("%s (seed %q): %v", c.name, seed, err)
		}
		leaks, n := unreported(pol, rep, events)
		checked += n
		for _, ev := range leaks {
			t.Errorf("%s under %s (seed %q): tainted %s at %s:%d has no finding (verdict %s)\n%s",
				c.name, pol.Name(), seed, ev.Func, ev.File, ev.Line, rep.Verdict, c.src)
		}
	}
	return checked
}

// unreported returns the tainted pol-sink events with no finding of rep
// for the same sink at their (file, line), and how many such events it
// checked. Matching the sink name keeps a finding on one call from
// covering another sink on the same line.
func unreported(pol *policy.Compiled, rep *webssari.Report, events []runtime.Event) (leaks []runtime.Event, checked int) {
	found := make(map[string]bool)
	for _, f := range rep.Findings {
		found[siteKey(f.Location.File, f.Location.Line, f.Sink)] = true
	}
	for _, ev := range events {
		if !ev.Tainted || !policySink(pol, ev.Func) {
			continue
		}
		checked++
		if !found[siteKey(ev.File, ev.Line, ev.Func)] {
			leaks = append(leaks, ev)
		}
	}
	return leaks, checked
}

// siteKey addresses one sink call. PHP's exit and die are one
// construct; the verifier reports both as die, the interpreter as exit.
func siteKey(file string, line int, sink string) string {
	sink = strings.ToLower(sink)
	if sink == "exit" {
		sink = "die"
	}
	return file + ":" + strconv.Itoa(line) + ":" + sink
}

// policySink reports whether pol treats fn as a sensitive channel: by
// the vulnerability class it declares for it, or — for the default
// policy, which wraps the seed prelude and declares no classes — by the
// prelude's sink table.
func policySink(pol *policy.Compiled, fn string) bool {
	if pol.SinkClass(fn) != "" {
		return true
	}
	_, ok := pol.Prelude().SinkFor(fn)
	return ok && pol.Name() == policy.DefaultName
}

// runAttacked executes c with all request data set to the payload.
// It returns the events recorded and the run's error; a program that
// does not parse yields neither.
func runAttacked(c soundCase, payload string) ([]runtime.Event, error) {
	res := parser.Parse(c.name, c.src)
	if len(res.Errs) > 0 {
		return nil, nil
	}
	in := runtime.New()
	in.MaxSteps = soundnessSteps
	if c.dir != "" {
		in.Loader = os.ReadFile
	}
	seedUntrusted(in, requestKeys(c), payload)
	err := in.Run(res.File)
	return in.Events, err
}

// The attacker's reach, fixed here rather than read from the policy
// under test: request arrays (and their register-globals-era aliases)
// and request-derived scalar globals.
var (
	requestArrays = []string{"_GET", "_POST", "_COOKIE", "_REQUEST", "_SERVER", "_FILES",
		"HTTP_GET_VARS", "HTTP_POST_VARS", "HTTP_COOKIE_VARS", "HTTP_SERVER_VARS"}
	requestScalars = []string{"HTTP_REFERER", "PHP_SELF", "QUERY_STRING"}
)

// seedUntrusted puts the payload under every key of every request array
// and into every request scalar.
func seedUntrusted(in *runtime.Interp, keys []string, payload string) {
	for _, name := range requestArrays {
		arr := runtime.Array()
		for _, k := range keys {
			arr.Set(k, runtime.Tainted(payload))
		}
		in.Globals[name] = arr
	}
	for _, name := range requestScalars {
		in.Globals[name] = runtime.Tainted(payload)
	}
}

var (
	indexKey = regexp.MustCompile(`\[\s*['"]?(\w+)['"]?\s*\]`)
	varName  = regexp.MustCompile(`\$(\w+)`)
)

// requestKeys lists the names a program may look up in request data:
// its literal index keys, plus its variable names for extract(). With
// includes, the sources of the include directory are scanned too.
func requestKeys(c soundCase) []string {
	texts := [][]byte{c.src}
	if c.dir != "" {
		paths, _ := filepath.Glob(filepath.Join(c.dir, "*.php"))
		for _, p := range paths {
			if src, err := os.ReadFile(p); err == nil {
				texts = append(texts, src)
			}
		}
	}
	seen := make(map[string]bool)
	for _, text := range texts {
		for _, re := range []*regexp.Regexp{indexKey, varName} {
			for _, m := range re.FindAllSubmatch(text, -1) {
				seen[string(m[1])] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// soundnessCorpus assembles the oracle's programs.
func soundnessCorpus(t *testing.T) []soundCase {
	t.Helper()
	var cases []soundCase
	add := func(prefix string, srcs []string) {
		for i, src := range srcs {
			cases = append(cases, soundCase{name: fmt.Sprintf("%s%02d.php", prefix, i), src: []byte(src)})
		}
	}
	add("frozen", frozenFilterCorpus(t))
	add("subset", irSubsetSources)
	add("ssrf", ssrfSources)
	add("fuzzseed", fuzzVerifySeeds)

	dir := filepath.Join("examples", "php")
	paths, err := filepath.Glob(filepath.Join(dir, "*.php"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples under %s: %v", dir, err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, soundCase{name: p, src: src, dir: dir})
	}

	// Seeded samples of the generated corpora: a few Figure 10 projects
	// and a few §5 projects, up to three files each.
	rng := rand.New(rand.NewSource(2004))
	sample := func(profiles []corpus.Profile, n int) {
		for _, i := range rng.Perm(len(profiles))[:n] {
			proj := corpus.Generate(profiles[i], uint64(rng.Int63()))
			names := proj.FileNames()
			for _, name := range names[:min(3, len(names))] {
				cases = append(cases, soundCase{name: name, src: proj.Sources[name]})
			}
		}
	}
	sample(corpus.Figure10(), 8)
	sample(corpus.FullCorpus(0.02), 8)
	return cases
}

// frozenFilterCorpus reads the filter's regression corpus back out of
// the AI golden's entry labels, so the oracle runs exactly the programs
// whose abstract interpretation is frozen there.
func frozenFilterCorpus(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("internal", "flow", "testdata", "ai.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var srcs []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		label, ok := strings.CutPrefix(sc.Text(), "=== corpus ")
		if !ok {
			continue
		}
		_, quoted, _ := strings.Cut(label, ": ")
		src, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("golden label %q: %v", label, err)
		}
		srcs = append(srcs, src)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(srcs) == 0 {
		t.Fatal("no corpus entries in the AI golden")
	}
	return srcs
}

// irSubsetSources are the closure and foreach-by-reference programs of
// internal/flow's subset tests: constructs only the IR front end models.
var irSubsetSources = []string{
	"<?php\n$f = function ($a) { return $a; };\necho $f($_GET['x']);",
	"<?php\n$clean = function ($a) { return htmlspecialchars($a); };\necho $clean($_GET['x']);",
	`<?php $x = function ($v) { return $v; }; echo $x($_POST['y']);`,
	"<?php\n$prefix = $_GET['p'];\n$render = function ($body) use ($prefix) { echo $prefix . $body; };\n$render('safe');",
	"<?php\n$acc = '';\n$add = function () use (&$acc) { $acc = $_GET['x']; };\n$add();\necho $acc;",
	"<?php\n$f = function ($a) { return htmlspecialchars($a); };\n$f = $_GET['which'];\necho $f($_GET['x']);",
	`<?php echo function () { return 1; };`,
	"<?php\n$rows = array('a', 'b');\nforeach ($rows as &$row) { $row = $_GET['x']; }\necho $rows;",
	"<?php\n$rows = array('a', 'b');\nforeach ($rows as $row) { $row = $_GET['x']; }\necho $rows;",
	"<?php\n$rows = array($_GET['a']);\nforeach ($rows as &$row) { $row = htmlspecialchars($row); }\necho $rows;",
}

// ssrfSources exercise the ssrf policy's sinks and sanitizers, which the
// other corpora never reach.
var ssrfSources = []string{
	"<?php\n$ch = curl_init();\ncurl_setopt($ch, CURLOPT_URL, $_GET['u']);",
	"<?php\n$u = $_POST['u'];\nif ($u) { $h = fopen($u, 'r'); } else { readfile(basename($u)); }",
	"<?php\n$host = $_COOKIE['h'];\nfsockopen($host, 80);\nget_headers(websafe_url('http://' . $host));",
}
