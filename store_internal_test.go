package webssari

// Internal test of result-store addressing: resultKey and the config
// fingerprint inside it are unexported, so the test lives inside the
// package.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"webssari/internal/store"
)

// TestResultKeyDiscriminates pins what addresses a stored result: the
// entry name, the source bytes, and the verdict-shaping configuration —
// and, just as deliberately, what does NOT (the verdict-neutral solver
// mode, which must never fragment the cache).
func TestResultKeyDiscriminates(t *testing.T) {
	mk := func(opts ...Option) string {
		t.Helper()
		cfg, err := buildConfig(opts)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey("a.php", []byte("<?php echo 1;"), cfg)
	}
	base := mk()
	if mk() != base {
		t.Fatal("result key not deterministic")
	}
	cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey("b.php", []byte("<?php echo 1;"), cfg) == base {
		t.Fatal("name does not discriminate")
	}
	if resultKey("a.php", []byte("<?php echo 2;"), cfg) == base {
		t.Fatal("source does not discriminate")
	}
	if mk(WithPolicy("ssrf")) == base {
		t.Fatal("policy does not discriminate")
	}
	if mk(WithSolverConfig(SolverConfig{MaxConflicts: 7})) == base {
		t.Fatal("conflict budget does not discriminate")
	}
	if mk(WithSolverConfig(SolverConfig{MaxRestarts: 7})) == base {
		t.Fatal("restart budget does not discriminate")
	}
	// The verdict-neutral dispatch mode shares the address.
	if mk(WithSolverConfig(SolverConfig{Mode: SolverShared})) != base {
		t.Fatal("solver mode fragmented the result key")
	}
}

// recordingBackend is a result store that remembers every key written.
type recordingBackend struct {
	*store.Store
	mu   sync.Mutex
	keys []string
}

func (r *recordingBackend) Put(key string, payload []byte) error {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
	return r.Store.Put(key, payload)
}

// regressResults rewrites every stored result envelope the way a
// schema-1 writer stored it: findings that no patch point covers were
// dropped, so an unsafe report could carry none.
func regressResults(t *testing.T, b *recordingBackend) int {
	t.Helper()
	n := 0
	for _, key := range b.keys {
		payload, ok := b.Store.Get(key)
		if !ok {
			continue
		}
		var env storedEnvelope
		if json.Unmarshal(payload, &env) != nil || env.Report == nil {
			continue // the dependency graph, not a result
		}
		env.Schema = 1
		env.Report.Findings = nil
		stale, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Store.Put(key, stale); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}

// TestStaleSchemaResultNotServed pins that a result persisted under the
// previous envelope schema is recomputed, not served: a counterexample
// reached through a variable variable has no patch point, and a
// schema-1 store kept its report without the finding.
func TestStaleSchemaResultNotServed(t *testing.T) {
	const src = "<?php\n$$v = $_GET['x'];\necho $$v;\n"
	check := func(t *testing.T, rep *Report) {
		t.Helper()
		if rep.StoreHit {
			t.Fatalf("%s: schema-1 result served from the store", rep.File)
		}
		if rep.Verdict != VerdictUnsafe || len(rep.Findings) == 0 {
			t.Fatalf("%s: verdict %s with %d findings, want unsafe with findings",
				rep.File, rep.Verdict, len(rep.Findings))
		}
	}
	open := func(t *testing.T) *recordingBackend {
		t.Helper()
		st, err := OpenStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return &recordingBackend{Store: st}
	}

	t.Run("Verify", func(t *testing.T) {
		b := open(t)
		rep, err := Verify([]byte(src), "v.php", WithStoreBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		check(t, rep)
		if regressResults(t, b) != 1 {
			t.Fatal("expected one stored result")
		}
		rep, err = Verify([]byte(src), "v.php", WithStoreBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		check(t, rep)
	})

	t.Run("Incremental", func(t *testing.T) {
		b := open(t)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "v.php"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := []Option{WithStoreBackend(b), WithIncremental()}
		if _, err := VerifyDir(dir, opts...); err != nil {
			t.Fatal(err)
		}
		if regressResults(t, b) != 1 {
			t.Fatal("expected one stored result")
		}
		pr, err := VerifyDir(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Files) != 1 {
			t.Fatalf("got %d file reports, want 1", len(pr.Files))
		}
		check(t, pr.Files[0])
	})
}
