package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// batchE2E are the metrics an untraced run of a batch workload (fig10,
// s5) reports.
var batchE2E = []metricDef{
	{"files_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
}

// serveE2E are the metrics an untraced run of the serve workload
// reports: the batch ones plus the request latency from submit until the
// verdict line arrives on the job's NDJSON stream.
var serveE2E = append(append([]metricDef(nil), batchE2E...),
	metricDef{"req_p50_ms", "ms"},
	metricDef{"req_p99_ms", "ms"},
)

// batchLayers are the metrics a traced run of a batch workload (fig10,
// s5) reports.
var batchLayers = []metricDef{
	// Sequential layer walker, one file at a time (trace.go).
	{"parse.busy_s", "s"},
	{"parse.alloc_mb", "MB"},
	{"lower.busy_s", "s"},
	{"flow.busy_s", "s"},
	{"flow.alloc_mb", "MB"},
	{"rename.busy_s", "s"},
	{"constraints.busy_s", "s"},
	{"constraints.equations", "count"},
	{"constraints.checks", "count"},
	{"encode.busy_s", "s"},
	{"encode.trivial", "count"},
	{"encode.clauses", "count"},
	{"encode.vars", "count"},
	{"search.busy_s", "s"},
	{"sat.calls", "count"},
	{"sat.decisions", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"solve.busy_s", "s"},
	{"solve.alloc_mb", "MB"},
	{"core.counterexamples", "count"},
	{"fixing.busy_s", "s"},
	{"fixing.groups", "count"},
	{"report.busy_s", "s"},
	{"typestate.symptoms", "count"},
	{"other.busy_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	// One untraced VerifyDir repetition (batch.go).
	{"cache.hits", "count"},
	{"cache.evictions", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_cycles", "count"},
	{"host.steal_s", "s"},
}

// serveLayers are the metrics a traced run of the serve workload
// reports (serve.go).
var serveLayers = []metricDef{
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.samples", "count"},
	{"service.rejected", "count"},
	{"host.steal_s", "s"},
}

// metricsFor returns the metrics a run of workload reports.
func metricsFor(workload string, traced bool) []metricDef {
	switch {
	case workload == "serve" && traced:
		return serveLayers
	case workload == "serve":
		return serveE2E
	case traced:
		return batchLayers
	default:
		return batchE2E
	}
}

// validName is the form every metric name must take.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult assembles the result line from values, which must hold
// exactly the metrics in defs.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				return r, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return r, nil
}

func (r result) write(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
