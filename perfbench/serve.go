package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webssari/client"
	"webssari/internal/service"
	"webssari/internal/store"
	"webssari/internal/telemetry"
)

// Serve workload shape: serveClients closed-loop clients (one per CPU
// of the reference host) send serveRequests requests per repetition, so
// p99 has twelve samples beyond it; every missEvery-th request of a
// client carries a verdict-preserving edit that misses the store.
const (
	serveClients  = 2
	serveRequests = 1200
	missEvery     = 10
)

// serveRep is what one serve repetition — one fresh process hosting the
// daemon and its clients — reports to the parent.
type serveRep struct {
	SetupS    float64   `json:"setup_s"` // process start through the priming pass
	LoopS     float64   `json:"loop_s"`
	Attempted int       `json:"attempted"`
	OK        int       `json:"ok"`
	Problems  []string  `json:"problems,omitempty"`
	Rejected  int       `json:"rejected"`
	LatencyMS []float64 `json:"latency_ms"` // per loop request, submit to verdict line

	// Per-layer figures for traced runs; the store's are filled only
	// when the repetition itself is traced.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// timedBackend is the store.Backend the traced daemon runs on: it times
// every call into the store from outside it.
type timedBackend struct {
	b                store.Backend
	gets, hits, puts atomic.Int64
	getNS, putNS     atomic.Int64
}

func (t *timedBackend) Get(key string) ([]byte, bool) {
	start := time.Now()
	v, ok := t.b.Get(key)
	t.getNS.Add(time.Since(start).Nanoseconds())
	t.gets.Add(1)
	if ok {
		t.hits.Add(1)
	}
	return v, ok
}

func (t *timedBackend) Put(key string, payload []byte) error {
	start := time.Now()
	err := t.b.Put(key, payload)
	t.putNS.Add(time.Since(start).Nanoseconds())
	t.puts.Add(1)
	return err
}

func (t *timedBackend) Invalidate(key string) { t.b.Invalidate(key) }

// outcome is one request's result as its client saw it.
type outcome struct {
	submit, total time.Duration
	res           fileResult
	rejected      bool
}

var errStreamEmpty = errors.New("stream ended without a verdict line")

// request submits one file and follows the job's NDJSON stream until the
// verdict line arrives; the latency runs from submit to that line.
func request(ctx context.Context, cl *client.Client, name, src string) (outcome, error) {
	var o outcome
	start := time.Now()
	sub, err := cl.SubmitFile(ctx, client.SubmitFileRequest{Name: name, Source: src})
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Temporary() {
			o.rejected = true
			return o, nil
		}
		return o, fmt.Errorf("submitting %s: %w", name, err)
	}
	o.submit = time.Since(start)
	got := false
	err = cl.Stream(ctx, sub.Job, func(line json.RawMessage) error {
		if got {
			return nil
		}
		o.total = time.Since(start)
		got = true
		var r struct {
			File     string `json:"file"`
			Verdict  string `json:"verdict"`
			Symptoms int    `json:"symptoms"`
			Groups   int    `json:"groups"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("decoding the verdict line of %s: %w", name, err)
		}
		o.res = fileResult{File: r.File, Verdict: r.Verdict, Symptoms: r.Symptoms, Groups: r.Groups}
		return nil
	})
	if err != nil {
		return o, fmt.Errorf("streaming %s: %w", name, err)
	}
	if !got {
		return o, fmt.Errorf("%s: %w", name, errStreamEmpty)
	}
	return o, nil
}

// serveChild hosts a daemon built with service.New on a loopback
// listener, with a fresh store under storeDir, primes it with one cold
// pass over the input set, then runs the closed client loop. Traced, the
// daemon's store is wrapped in timedBackend and the clients' requests
// are recorded as spans written to traceOut.
func serveChild(in *inputSet, started time.Time, storeDir string, seed uint64, traceOut string) (*serveRep, error) {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	var (
		backend store.Backend = st
		timed   *timedBackend
		tracer  *telemetry.Tracer
	)
	if traceOut != "" {
		timed = &timedBackend{b: st}
		backend = timed
		tracer = telemetry.NewTracer()
	}
	tel := telemetry.New()
	srv := service.New(service.Config{StoreBackend: backend, Telemetry: tel})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer hc.CloseIdleConnections()
	cl := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc))

	rep, runErr := serveLoop(in, cl, started, seed, tracer)
	stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(stopCtx); err != nil && runErr == nil {
		runErr = err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && runErr == nil {
		runErr = err
	}
	if err := srv.Drain(stopCtx); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	if timed != nil {
		rep.Layer["store.get_ms"] = perCallMS(timed.getNS.Load(), timed.gets.Load())
		rep.Layer["store.put_ms"] = perCallMS(timed.putNS.Load(), timed.puts.Load())
		rep.Layer["store.hits"] = float64(timed.hits.Load())
		rep.Layer["store.misses"] = float64(timed.gets.Load() - timed.hits.Load())
		rep.Layer["store.puts"] = float64(timed.puts.Load())
		rep.Layer["service.rejected"] = float64(tel.Metrics.Counter(telemetry.MetricServiceJobsRejected).Value())
		if err := writeTrace(tracer, traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func perCallMS(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls) / 1e6
}

// serveLoop primes the daemon and runs the closed loop against it.
func serveLoop(in *inputSet, cl *client.Client, started time.Time, seed uint64, tracer *telemetry.Tracer) (*serveRep, error) {
	ctx := context.Background()
	if tracer != nil {
		ctx = telemetry.WithTelemetry(ctx, &telemetry.Telemetry{Tracer: tracer})
	}
	var files []string
	sources := make(map[string]string)
	for _, p := range in.Projects {
		for _, rel := range p.Files {
			data, err := os.ReadFile(filepath.Join(in.Root, filepath.FromSlash(rel)))
			if err != nil {
				return nil, err
			}
			if !strings.HasPrefix(string(data), phpOpen) {
				return nil, fmt.Errorf("%s does not start with %q", rel, phpOpen)
			}
			files = append(files, rel)
			sources[rel] = string(data)
		}
	}
	rep := &serveRep{Layer: make(map[string]float64)}

	// Cold priming pass: every drawn file once, split over the clients;
	// the store is empty, so each request verifies and writes through.
	primed := make(map[string]fileResult, len(files))
	var mu sync.Mutex
	err := clients(func(c int) error {
		for i := c; i < len(files); i += serveClients {
			o, err := request(ctx, cl, files[i], sources[files[i]])
			if err != nil {
				return err
			}
			mu.Lock()
			if o.rejected {
				rep.Rejected++
			} else {
				primed[files[i]] = o.res
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ok, problems := checkAnswers(in.Projects, primed)
	rep.Attempted, rep.OK, rep.Problems = len(files), ok, problems
	rep.SetupS = time.Since(started).Seconds()

	// The closed loop: each client sends its next request when its
	// previous verdict has arrived.
	var submitMS, hitMS, missMS []float64
	loopStart := time.Now()
	err = clients(func(c int) error {
		rng := newSplitMix(seed*31 + uint64(c) + 1)
		cctx, csp := telemetry.StartRootSpan(ctx, "client", "client", c)
		defer csp.End()
		for k := 0; k < serveRequests/serveClients; k++ {
			file := files[rng.next()%uint64(len(files))]
			src := sources[file]
			miss := k%missEvery == missEvery-1
			if miss {
				// A fresh taint-free statement: new content, same verdict.
				src = fmt.Sprintf("%s$bench_edit_%d_%d = %d;\n%s", phpOpen, c, k, k, src[len(phpOpen):])
			}
			rctx, rsp := telemetry.StartSpan(cctx, "request", "file", file, "miss", miss)
			o, err := request(rctx, cl, file, src)
			rsp.End()
			if err != nil {
				return err
			}
			mu.Lock()
			rep.Attempted++
			switch want, known := primed[file]; {
			case o.rejected:
				rep.Rejected++
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: refused", file))
			case known && o.res == want:
				rep.OK++
			default:
				rep.Problems = append(rep.Problems, fmt.Sprintf("%s: served %+v, primed %+v", file, o.res, want))
			}
			if !o.rejected {
				rep.LatencyMS = append(rep.LatencyMS, ms(o.total))
				submitMS = append(submitMS, ms(o.submit))
				if miss {
					missMS = append(missMS, ms(o.total))
				} else {
					hitMS = append(hitMS, ms(o.total))
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.LoopS = time.Since(loopStart).Seconds()
	rep.Layer["serve.submit_ms"] = median(submitMS)
	rep.Layer["serve.hit_ms"] = median(hitMS)
	rep.Layer["serve.miss_ms"] = median(missMS)
	rep.Layer["serve.samples"] = float64(len(rep.LatencyMS))
	return rep, nil
}

const phpOpen = "<?php\n"

// clients runs fn for each client concurrently and returns the first
// error once all have finished.
func clients(fn func(c int) error) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runServe measures the serve workload: repetitions in fresh processes
// until the run's time is spent.
func (b *bench) runServe(in *inputSet) error {
	manifest := filepath.Join(b.work, "manifest.json")
	if err := writeManifest(in, manifest); err != nil {
		return err
	}
	var (
		setups, filesPerS, cpu, rss, steal []float64
		latency                            []float64
		layer                              = make(map[string][]float64)
	)
	for b.more(len(filesPerS)) {
		args := []string{"-manifest", manifest, "-store", filepath.Join(b.work, "store"),
			"-seed", fmt.Sprint(b.seed)}
		if b.trace {
			args = append(args, "-trace-out", b.traceFile())
		}
		var rep serveRep
		usage, err := b.child(&rep, "serve", args...)
		if err != nil {
			return err
		}
		b.attempted += rep.Attempted
		b.ok += rep.OK
		b.problem(rep.Problems...)
		if rep.Rejected > 0 {
			b.problem(fmt.Sprintf("the daemon refused %d request(s)", rep.Rejected))
		}
		setups = append(setups, rep.SetupS)
		filesPerS = append(filesPerS, float64(len(rep.LatencyMS))/rep.LoopS)
		cpu = append(cpu, usage.cpuS)
		rss = append(rss, usage.rssMB)
		steal = append(steal, usage.stealS)
		latency = append(latency, rep.LatencyMS...)
		for k, v := range rep.Layer {
			layer[k] = append(layer[k], v)
		}
		b.logf("rep %d: %d requests in %.3fs (%.1f/s), cpu %.2fs, rss %.1fMB, steal %.2fs, setup %.3fs",
			len(filesPerS), len(rep.LatencyMS), rep.LoopS, filesPerS[len(filesPerS)-1], usage.cpuS, usage.rssMB,
			usage.stealS, rep.SetupS)
	}
	p50, p99, err := latencies(latency)
	if err != nil {
		return err
	}
	b.logf("req latency over %d request samples: p50 %.3fms, p99 %.3fms", len(latency), p50, p99)
	if b.trace {
		for k, v := range layer {
			b.values[k] = median(v)
		}
		b.values["host.steal_s"] = median(steal)
		return nil
	}
	b.values = map[string]float64{
		"files_per_s": median(filesPerS),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"ok_ratio":    b.okRatio(),
		"setup_s":     median(setups),
		"req_p50_ms":  p50,
		"req_p99_ms":  p99,
	}
	return nil
}

// latencies returns the median and 99th percentile of samples in ms.
func latencies(samples []float64) (p50, p99 float64, err error) {
	if p50, err = percentile(samples, 50); err != nil {
		return 0, 0, err
	}
	if p99, err = percentile(samples, 99); err != nil {
		return 0, 0, err
	}
	return p50, p99, nil
}
