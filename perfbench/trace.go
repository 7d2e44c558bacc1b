package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"webssari"
	"webssari/internal/constraint"
	"webssari/internal/core"
	"webssari/internal/fixing"
	"webssari/internal/flow"
	"webssari/internal/ir"
	"webssari/internal/php/parser"
	"webssari/internal/prelude"
	"webssari/internal/rename"
	"webssari/internal/report"
	"webssari/internal/telemetry"
)

// The layers the sequential walker calls, in pipeline order.
var layers = []string{"parse", "lower", "flow", "rename", "constraints", "solve", "fixing", "report"}

// layerCounts are the work counts the walker sums over a pass.
var layerCounts = []string{
	"constraints.equations", "constraints.checks", "encode.trivial", "encode.clauses", "encode.vars",
	"sat.calls", "sat.decisions", "sat.conflicts", "sat.propagations", "core.counterexamples",
	"fixing.groups", "typestate.symptoms",
}

// layerRep is what the layer-walker process reports: the verdicts of
// both passes (each is checked against the known answers) and the traced
// pass's per-layer metrics.
type layerRep struct {
	Untraced []fileResult       `json:"untraced"`
	Traced   []fileResult       `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
}

// walker walks every file through parser.Parse → ir.Lower →
// flow.BuildUnit → rename.Rename → constraint.Build → core.Solve →
// fixing.Analyze → report.Build, one file at a time, so that the
// process-wide allocation counter's movement during a call belongs to
// the layer called. Traced, it records a span per call on tracer (spans
// come from the walker, not from inside the program: the engine's own
// calls get a context without telemetry) and reads the allocation
// counter around each call; untraced, it only times the pass.
type walker struct {
	ctx    context.Context // carries the tracer when traced
	traced bool

	busy  map[string]time.Duration
	alloc map[string]uint64
	count map[string]float64
}

func newWalker(tracer *telemetry.Tracer) *walker {
	d := &walker{
		ctx:   context.Background(),
		busy:  make(map[string]time.Duration),
		alloc: make(map[string]uint64),
		count: make(map[string]float64),
	}
	for _, k := range layerCounts {
		d.count[k] = 0
	}
	if tracer != nil {
		d.ctx = telemetry.WithTelemetry(d.ctx, &telemetry.Telemetry{Tracer: tracer})
		d.traced = true
	}
	return d
}

// call runs one layer's call, charging its time (and, traced, its
// allocation) to the layer.
func (d *walker) call(ctx context.Context, layer string, fn func()) {
	if !d.traced {
		t := time.Now()
		fn()
		d.busy[layer] += time.Since(t)
		return
	}
	_, sp := telemetry.StartSpan(ctx, layer)
	a := allocBytes()
	t := time.Now()
	fn()
	el := time.Since(t)
	d.alloc[layer] += allocBytes() - a
	sp.End()
	d.busy[layer] += el
}

// file runs the pipeline over one file and returns its verdict.
func (d *walker) file(root, rel string, opts core.Options) (fileResult, error) {
	ctx, sp := telemetry.StartSpan(d.ctx, "file", "file", rel)
	defer sp.End()
	name := filepath.Join(root, filepath.FromSlash(rel))
	src, err := os.ReadFile(name)
	if err != nil {
		return fileResult{}, err
	}
	var (
		parsed *parser.Result
		unit   *ir.Unit
		prog   *core.Program
		res    *core.Result
		fixes  *fixing.Analysis
		rep    *report.Report
	)
	d.call(ctx, "parse", func() { parsed = parser.Parse(name, src) })
	if len(parsed.Errs) > 0 {
		return fileResult{}, fmt.Errorf("%s: parse: %w", rel, parsed.Errs[0])
	}
	d.call(ctx, "lower", func() { unit, err = ir.Lower(parsed.File) })
	if err != nil {
		return fileResult{}, fmt.Errorf("%s: lower: %w", rel, err)
	}
	prog = &core.Program{Unit: unit}
	d.call(ctx, "flow", func() { prog.AI, err = flow.BuildUnit(unit, opts.Flow) })
	if err != nil {
		return fileResult{}, fmt.Errorf("%s: flow: %w", rel, err)
	}
	d.call(ctx, "rename", func() { prog.Renamed = rename.Rename(prog.AI) })
	d.call(ctx, "constraints", func() { prog.System = constraint.Build(prog.Renamed) })
	d.call(ctx, "solve", func() { res = core.Solve(context.Background(), prog, opts) })
	d.call(ctx, "fixing", func() { fixes = fixing.Analyze(res) })
	d.call(ctx, "report", func() { rep = report.Build(res, fixes) })

	d.count["constraints.equations"] += float64(len(prog.System.Equations))
	d.count["constraints.checks"] += float64(len(prog.System.Checks))
	for _, ar := range res.PerAssert {
		d.busy["encode"] += ar.EncodeTime
		d.busy["search"] += ar.SearchTime
		d.count["encode.clauses"] += float64(ar.EncodedClauses)
		d.count["encode.vars"] += float64(ar.EncodedVars)
		d.count["core.counterexamples"] += float64(len(ar.Counterexamples))
		if ar.SearchTime > 0 {
			// The check reached the SAT solver.
			d.count["sat.calls"]++
			d.count["sat.decisions"] += float64(ar.SolverStats.Decisions)
			d.count["sat.conflicts"] += float64(ar.SolverStats.Conflicts)
			d.count["sat.propagations"] += float64(ar.SolverStats.Propagations)
		} else if !ar.Unknown && !ar.Reused {
			// Decided while encoding: the formula folded to a constant.
			d.count["encode.trivial"]++
		}
	}
	d.count["fixing.groups"] += float64(rep.GroupCount())
	d.count["typestate.symptoms"] += float64(rep.SymptomCount())

	// The verdict as webssari.Report derives it.
	verdict := webssari.VerdictSafe
	switch {
	case !res.Safe():
		verdict = webssari.VerdictUnsafe
	case rep.Incomplete:
		verdict = webssari.VerdictIncomplete
	}
	return fileResult{File: rel, Verdict: verdict, Symptoms: rep.SymptomCount(), Groups: rep.GroupCount()}, nil
}

// project drives every file of one project through d and returns the
// verdicts and the wall time taken.
func (d *walker) project(in *inputSet, p project) ([]fileResult, time.Duration, error) {
	// VerifyDir's per-file options: the default prelude, the input root
	// as include directory, per-assert solving; here on one thread.
	opts := core.Options{Flow: flow.Options{Prelude: prelude.Default(), Dir: in.Root}, Parallelism: 1}
	var out []fileResult
	start := time.Now()
	for _, rel := range p.Files {
		r, err := d.file(in.Root, rel, opts)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, r)
	}
	return out, time.Since(start), nil
}

// layersChild makes an untraced and a traced pass of the sequential
// walker over the input set, writes the traced pass's spans to traceOut
// as Chrome trace JSON (it opens in Perfetto), and reports the traced
// pass's per-layer metrics plus the tracing overhead: traced wall against
// untraced wall of the same walker. The passes alternate project by
// project, each going first on every other project, so that drift in
// the host's speed and warm-up fall on both alike.
func layersChild(in *inputSet, traceOut string) (*layerRep, error) {
	tracer := telemetry.NewTracer()
	plain, d := newWalker(nil), newWalker(tracer)
	rep := &layerRep{}
	var plainWall, tracedWall time.Duration
	for i, p := range in.Projects {
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				r, w, err := plain.project(in, p)
				if err != nil {
					return nil, err
				}
				rep.Untraced = append(rep.Untraced, r...)
				plainWall += w
			} else {
				r, w, err := d.project(in, p)
				if err != nil {
					return nil, err
				}
				rep.Traced = append(rep.Traced, r...)
				tracedWall += w
			}
		}
	}
	if err := writeTrace(tracer, traceOut); err != nil {
		return nil, err
	}

	m := make(map[string]float64)
	var covered time.Duration
	for _, l := range layers {
		m[l+".busy_s"] = d.busy[l].Seconds()
		covered += d.busy[l]
	}
	m["encode.busy_s"] = d.busy["encode"].Seconds()
	m["search.busy_s"] = d.busy["search"].Seconds()
	for _, l := range []string{"parse", "flow", "solve"} {
		m[l+".alloc_mb"] = float64(d.alloc[l]) / mb
	}
	for k, v := range d.count {
		m[k] = v
	}
	// Whatever no layer span covers: reading files, the walker's own
	// bookkeeping and the spans' cost.
	m["other.busy_s"] = (tracedWall - covered).Seconds()
	m["trace.overhead_ratio"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	rep.Metrics = m
	return rep, nil
}

// writeTrace writes tracer's spans to file as Chrome trace JSON.
func writeTrace(tracer *telemetry.Tracer, file string) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", file, err)
	}
	return f.Close()
}
