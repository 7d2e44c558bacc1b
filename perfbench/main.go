// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed with internal/corpus, drives the public
// API over them (webssari.VerifyDir; a service.New daemon through the
// client package), checks every verdict against the generator's known
// answer, and prints its metrics as one JSON line:
//
//	perfbench -workload fig10|s5|serve -seed N -seconds S -trace 0|1
//
// Every repetition runs in a fresh process, so each starts with a cold
// compile cache and its own peak RSS. With -trace 1 it reports
// per-layer metrics from a separate traced run instead of the end-to-end
// ones. perfbench/README.md describes the workloads and metrics;
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

// minReps is the fewest repetitions a run makes, however long they take.
const minReps = 3

// runTimeout bounds a whole run, children included.
const runTimeout = 170 * time.Second

// bench is one run of one workload.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string // kept outputs (trace files)
	work     string // this run's generated inputs, removed at exit

	start   time.Time     // when measuring began
	lastRep time.Duration // wall time of the latest child process

	attempted, ok int
	problems      []string
	values        map[string]float64
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: fig10, s5 or serve")
		seed     = fs.Uint64("seed", 1, "input generation seed")
		seconds  = fs.Int("seconds", 30, "how long to keep starting repetitions")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		work     = fs.String("work", filepath.Join(".bench_build", "perfbench-work"), "directory for generated inputs and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace takes 0 or 1 and -seconds a positive count")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	b := &bench{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *work,
	}
	if err := b.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	failed := b.attempted - b.ok
	if len(b.problems) > 0 {
		failed = max(failed, 1)
		const shown = 20
		for i, p := range b.problems {
			if i == shown {
				fmt.Fprintf(os.Stderr, "perfbench: ... and %d more\n", len(b.problems)-shown)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: WRONG: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %d of %d verdict(s) disagree with the known answers\n", failed, b.attempted)
	}
	res, err := newResult(metricsFor(b.workload, b.trace), b.values, b.attempted, failed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute generates the inputs and measures the workload.
func (b *bench) execute() error {
	b.work = filepath.Join(b.out, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	in, err := generate(b.workload, b.seed, filepath.Join(b.work, "tree"))
	if err != nil {
		return err
	}
	b.logf("%s seed %d: %d projects, %d files, %d statements", b.workload, b.seed,
		len(in.Projects), in.fileCount(), in.Statements)
	b.start = time.Now()
	if b.trace {
		b.values = make(map[string]float64)
	}
	switch {
	case b.workload == "serve":
		return b.runServe(in)
	case b.trace:
		return b.traceBatch(in)
	default:
		return b.runBatch(in)
	}
}

// traceBatch measures a batch workload's layers: one untraced VerifyDir
// repetition for the runtime and compile-cache counters, then the
// sequential layer walker, untraced and traced.
func (b *bench) traceBatch(in *inputSet) error {
	var rep batchRep
	usage, err := b.child(&rep, "batch", "-root", in.Root)
	if err != nil {
		return err
	}
	b.checkBatch(in, &rep)
	b.values["cache.hits"] = float64(rep.CacheHits)
	b.values["cache.evictions"] = float64(rep.CacheEvictions)
	b.values["go.alloc_mb"] = rep.GoAllocMB
	b.values["go.gc_cpu_s"] = rep.GoGCCPUS
	b.values["go.gc_cycles"] = rep.GoGCCycles

	manifest := filepath.Join(b.work, "manifest.json")
	if err := writeManifest(in, manifest); err != nil {
		return err
	}
	var lay layerRep
	lusage, err := b.child(&lay, "layers", "-manifest", manifest, "-trace-out", b.traceFile())
	if err != nil {
		return err
	}
	for _, pass := range [][]fileResult{lay.Untraced, lay.Traced} {
		b.attempted += in.fileCount()
		got, problems := resultsByFile(pass)
		ok, wrong := checkAnswers(in.Projects, got)
		b.ok += ok
		b.problem(append(problems, wrong...)...)
	}
	for k, v := range lay.Metrics {
		b.values[k] = v
	}
	b.values["host.steal_s"] = median([]float64{usage.stealS, lusage.stealS})
	b.logf("traced pass written to %s; tracing overhead %.1f%%", b.traceFile(), 100*lay.Metrics["trace.overhead_ratio"])
	return nil
}

func (b *bench) traceFile() string {
	return filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
}

// more reports whether to start another repetition after done of them:
// always below minReps, then while the next (as long as the last) still
// ends within the run's time.
func (b *bench) more(done int) bool {
	return done < minReps || time.Since(b.start)+b.lastRep <= b.seconds
}

func (b *bench) okRatio() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.ok) / float64(b.attempted)
}

func (b *bench) problem(ps ...string) { b.problems = append(b.problems, ps...) }

// logf prints a diagnostic line; the result line always comes last.
func (b *bench) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// usage is what the kernel accounted to one child process.
type usage struct {
	cpuS   float64 // user + system CPU
	rssMB  float64 // peak resident set
	stealS float64 // host steal time while it ran
}

// child runs one repetition in a fresh process of this binary and
// decodes its JSON report into out.
func (b *bench) child(out any, kind string, args ...string) (usage, error) {
	exe, err := os.Executable()
	if err != nil {
		return usage{}, err
	}
	cmd := exec.CommandContext(b.ctx, exe, append([]string{"child", kind}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	steal := stealSeconds()
	start := time.Now()
	cmd.Args = append(cmd.Args, "-t0", strconv.FormatInt(start.UnixNano(), 10))
	err = cmd.Run()
	b.lastRep = time.Since(start)
	u := usage{stealS: stealSeconds() - steal}
	if err != nil {
		return u, fmt.Errorf("%s repetition: %w", kind, err)
	}
	ps := cmd.ProcessState
	u.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return u, fmt.Errorf("decoding the %s repetition's report: %w", kind, err)
	}
	return u, nil
}

// childMain is a repetition's process: it measures and prints one JSON
// report on standard output.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: missing kind")
		return 2
	}
	kind := args[0]
	fs := flag.NewFlagSet("perfbench child "+kind, flag.ContinueOnError)
	var (
		root     = fs.String("root", "", "input tree (batch)")
		probe    = fs.Bool("probe", false, "stop at the first dispatch (batch)")
		manifest = fs.String("manifest", "", "input set and known answers (layers, serve)")
		storeDir = fs.String("store", "", "result store directory (serve)")
		seed     = fs.Uint64("seed", 1, "request sequence seed (serve)")
		traceOut = fs.String("trace-out", "", "Chrome trace output; set for traced repetitions")
		t0       = fs.Int64("t0", 0, "Unix ns at which the parent started this process")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	started := time.Unix(0, *t0)
	var (
		out any
		err error
	)
	switch kind {
	case "batch":
		out, err = batchChild(*root, started, *probe)
	case "layers", "serve":
		var in *inputSet
		if in, err = readManifest(*manifest); err != nil {
			break
		}
		if kind == "layers" {
			out, err = layersChild(in, *traceOut)
		} else {
			out, err = serveChild(in, started, *storeDir, *seed, *traceOut)
		}
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", kind, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", kind, err)
		return 1
	}
	return 0
}
