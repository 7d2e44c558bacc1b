package service

// Tests of the per-job solver spec: admission validation, the version
// capability advertisement, daemon-default merging, the wire
// round-trip's verdict neutrality (a solver-spec'd job must answer
// exactly like a default one), and the retired fields older clients
// still send.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"webssari"
	"webssari/internal/service/api"
)

// TestSubmitSolverSpec drives one vulnerable file through the daemon
// under the default solver, a shared-mode spec, and a spec carrying the
// retired portfolio and warm-start fields, and requires identical report
// JSON (profiles are nil on wire reports already). The retired fields
// are admitted, ignored, and named in the submit response.
func TestSubmitSolverSpec(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(body map[string]any) (map[string]any, []any) {
		t.Helper()
		code, sub := postJSON(t, ts, "/v1/files", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d (%v)", code, sub)
		}
		notes, _ := sub["deprecated"].([]any)
		id, _ := sub["job"].(string)
		st := waitDone(t, ts, id)
		if st["state"] != string(stateDone) {
			t.Fatalf("job finished %v: %v", st["state"], st["error"])
		}
		code, res := getJSON(t, ts, "/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result: HTTP %d", code)
		}
		rep, _ := res["report"].(map[string]any)
		if rep == nil {
			t.Fatalf("no report in %v", res)
		}
		delete(rep, "profile")
		return rep, notes
	}

	ref, notes := submit(map[string]any{"name": "page.php", "source": vulnerableSrc})
	if len(notes) != 0 {
		t.Errorf("default job carries deprecation notes: %v", notes)
	}
	for _, tc := range []struct {
		spec    map[string]any
		retired []string // fields the submit response must name
	}{
		{map[string]any{"mode": "shared"}, nil},
		{map[string]any{"mode": "portfolio", "portfolio": 3, "warm_start": true},
			[]string{"solver.mode", "solver.portfolio", "solver.warm_start"}},
		{map[string]any{"mode": "shared", "warm_start": true}, []string{"solver.warm_start"}},
	} {
		got, notes := submit(map[string]any{"name": "page.php", "source": vulnerableSrc, "solver": tc.spec})
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("solver spec %v changed the report:\n got %v\nwant %v", tc.spec, got, ref)
		}
		if len(notes) != len(tc.retired) {
			t.Errorf("solver spec %v: deprecation notes %v, want one for each of %v", tc.spec, notes, tc.retired)
			continue
		}
		for i, field := range tc.retired {
			if note, _ := notes[i].(string); !strings.Contains(note, field) {
				t.Errorf("solver spec %v: note %q does not name %s", tc.spec, note, field)
			}
		}
	}
}

// TestSubmitSolverSpecValidation covers rejection at admission.
func TestSubmitSolverSpecValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []map[string]any{
		{"mode": "quantum"},
		{"max_conflicts": -1},
	}
	for _, spec := range cases {
		code, body := postJSON(t, ts, "/v1/files", map[string]any{
			"name": "p.php", "source": safeSrc, "solver": spec,
		})
		if code != http.StatusBadRequest {
			t.Errorf("solver spec %v: HTTP %d (%v), want 400", spec, code, body)
		}
	}
	// Unknown fields inside the spec fail like any other typo.
	code, _ := postJSON(t, ts, "/v1/files", map[string]any{
		"name": "p.php", "source": safeSrc,
		"solver": map[string]any{"lanes": 3},
	})
	if code != http.StatusBadRequest {
		t.Errorf("unknown solver field: HTTP %d, want 400", code)
	}
}

// TestVersionAdvertisesSolverModes pins the capability advertisement:
// clients discover the dispatch modes from /v1/version.
func TestVersionAdvertisesSolverModes(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getJSON(t, ts, "/v1/version")
	if code != http.StatusOK {
		t.Fatalf("version: HTTP %d", code)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var v api.VersionResponse
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	want := []string{"per-assert", "shared"}
	if !reflect.DeepEqual(v.SolverModes, want) {
		t.Fatalf("solver_modes = %v, want %v", v.SolverModes, want)
	}
}

// TestMergeSolver pins the field-wise overlay of per-job specs onto the
// daemon default.
func TestMergeSolver(t *testing.T) {
	base := webssari.SolverConfig{Mode: webssari.SolverShared, MaxConflicts: 100}
	over := webssari.SolverConfig{Mode: webssari.SolverPerAssert, MaxRestarts: 4}
	got := mergeSolver(base, over)
	want := webssari.SolverConfig{
		Mode:         webssari.SolverPerAssert,
		MaxConflicts: 100,
		MaxRestarts:  4,
	}
	if got != want {
		t.Fatalf("mergeSolver = %+v, want %+v", got, want)
	}
	if got := mergeSolver(base, webssari.SolverConfig{}); got != base {
		t.Fatalf("zero overlay changed the base: %+v", got)
	}
}
