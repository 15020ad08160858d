// Command perfbench is GAIA-Go's end-to-end benchmark. One process runs
// one named workload (or all of them), checks its outputs, and prints
// every metric by name with its unit; the last line of standard output is
// a JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload year-sweep --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones of the named
// workload. With --trace 1 every workload runs with spans recorded around
// each call the benchmark makes into a program layer, and the metrics are
// the per-layer ones of all workloads plus each workload's tracing
// overhead; the spans go to --span-dir. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], fullSize(), os.Stdout, os.Stderr)) }

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// run executes one benchmark invocation at the given input sizes and
// returns the process exit code.
func run(args []string, size sizes, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Float64("seconds", 10, "seconds of measured passes")
	traceOn := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fl.String("root", ".", "repository root (for the environment stamp)")
	workDir := fl.String("work-dir", ".bench_build/work", "scratch directory for disk-cache artifacts")
	spanDir := fl.String("span-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	pin := fl.Bool("pin-figures", false, "print the quick-scale figure digests as Go source and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *pin {
		return pinFigures(stdout, stderr)
	}
	var wls []bench
	if *name == "all" {
		wls = workloads()
	} else if w, ok := workloadByName(*name); ok {
		wls = []bench{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	env := stamp(*root)
	envLine, _ := json.Marshal(env) // strings and ints always marshal
	fmt.Fprintf(stdout, "env %s\n", envLine)

	cfg := config{seed: *seed, size: size, workDir: *workDir}
	res := result{Metrics: map[string]metricVal{}}
	if *traceOn == 1 {
		// Every per-layer metric comes from one traced process: all
		// workloads run, sharing the time budget.
		cfg.seconds = *seconds / float64(len(workloads()))
		for _, w := range workloads() {
			rep, err := measure(w, cfg, true)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := writeSpans(path, env, rep.spans); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s: spans written to %s\n", w.name, path)
			rep.print(stdout, w.name)
			res.add(rep)
			for k, v := range rep.layer {
				res.Metrics[w.name+"."+k] = v
			}
		}
	} else {
		cfg.seconds = *seconds
		cfg.setupReps = 3
		for _, w := range wls {
			rep, err := measure(w, cfg, false)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(stdout, w.name)
			res.add(rep)
			prefix := ""
			if len(wls) > 1 {
				prefix = w.name + "."
			}
			for k, v := range rep.endToEnd() {
				res.Metrics[prefix+k] = v
			}
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func (r *result) add(rep *report) {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
}

// config carries what every workload's set-up needs.
type config struct {
	seed      int64
	seconds   float64 // measured time
	setupReps int     // set-ups per run; the median is setup_s
	size      sizes
	workDir   string
}

// bench is one named workload, a set of generated inputs. setup builds
// the fixtures and returns a runner; it runs setupReps times and only the
// last runner is measured.
type bench struct {
	name  string
	setup func(cfg config, tr *tracer) (runner, error)
	// setupOnce marks fixtures that exist once per process, so set-up
	// cannot be repeated and setup_s is its single measurement.
	setupOnce bool
}

// runner measures one workload after set-up.
type runner interface {
	// pass runs one timed pass and returns the cost of its cold and warm
	// parts.
	pass(tr *tracer, rep *report, idx int) (cold, warm cost)
	// finish adds a traced run's per-layer metrics from its spans and
	// counts.
	finish(spans []span, rep *report)
	// close releases what set-up acquired; it waits for every goroutine
	// and listener the runner started.
	close()
}

// summarizer is a runner that reports on its passes as a whole, in
// traced and untraced runs alike.
type summarizer interface {
	summarize(rep *report)
}

// fixedPasser is a runner whose pass count is set by the time budget up
// front rather than by the clock, because its live state grows per pass.
type fixedPasser interface {
	passCount(seconds float64) int
}

func workloads() []bench {
	return []bench{suiteWorkload, yearSweepWorkload, engineMixWorkload, serveMixWorkload}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (bench, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

// cost is the elapsed and CPU time of some timed calls.
type cost struct {
	elapsed, cpu time.Duration
}

// time runs f and adds its elapsed and process CPU time to c.
func (c *cost) time(f func()) {
	c0, t0 := cpuTime(), time.Now()
	f()
	c.elapsed += time.Since(t0)
	c.cpu += cpuTime() - c0
}

// cpuTime is the process's user plus system CPU time. Unlike elapsed
// time it leaves out CPU the host steals from a virtual machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samples holds per-pass or per-set-up seconds, elapsed and CPU.
type samples struct {
	elapsed, cpu []float64
}

func (s *samples) add(c cost) {
	s.elapsed = append(s.elapsed, c.elapsed.Seconds())
	s.cpu = append(s.cpu, c.cpu.Seconds())
}

// report collects one workload's operations, check failures and metrics.
type report struct {
	attempted, failed int
	problems          []string
	setups            samples
	colds, warms      samples // untraced passes
	tracedColds       samples // traced passes
	liveHeapMB        float64
	layer             map[string]metricVal
	notes             []string
	spans             []span
}

// op counts one attempted operation; a non-nil err (a failed call or a
// failed output check) counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metricVal{Value: v, Unit: unit}
}

// spanMetric sets a per-layer metric to the median duration of the spans
// with the given name, in ms or µs according to unit.
func (r *report) spanMetric(spans []span, spanName, metric, unit string) {
	ds := durations(spans, spanName)
	if len(ds) == 0 {
		r.op(fmt.Errorf("no %s spans recorded", spanName))
		return
	}
	scale := 1e6
	if unit == "us" {
		scale = 1e3
	}
	r.setLayer(metric, median(ds)/scale, unit)
}

// endToEnd is the untraced run's metrics: medians of CPU seconds, which
// stay steady when the host steals CPU from the machine, and the live
// heap.
func (r *report) endToEnd() map[string]metricVal {
	return map[string]metricVal{
		"setup_s":      {median(r.setups.cpu), "s"},
		"cold_cpu_s":   {median(r.colds.cpu), "s"},
		"warm_cpu_s":   {median(r.warms.cpu), "s"},
		"live_heap_mb": {r.liveHeapMB, "MB"},
	}
}

func (r *report) print(w io.Writer, name string) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", name, n)
	}
	fmt.Fprintf(w, "%s: %d passes; medians: setup %.3fs cpu (%.3fs elapsed), cold %.3fs cpu (%.3fs elapsed), warm %.3fs cpu (%.3fs elapsed); live heap %.1f MB; %d/%d operations failed\n",
		name, len(r.colds.cpu)+len(r.tracedColds.cpu),
		median(r.setups.cpu), median(r.setups.elapsed), median(r.colds.cpu), median(r.colds.elapsed),
		median(r.warms.cpu), median(r.warms.elapsed), r.liveHeapMB, r.failed, r.attempted)
	for _, x := range []struct {
		what string
		s    samples
	}{{"set-ups", r.setups}, {"cold passes", r.colds}, {"warm passes", r.warms}} {
		fmt.Fprintf(w, "%s: %s cpu %s elapsed %s\n", name, x.what, fmtSeconds(x.s.cpu), fmtSeconds(x.s.elapsed))
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%s: FAILED: %s\n", name, p)
	}
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// measure sets a workload up, runs its passes for cfg.seconds and
// collects its report. A traced run alternates untraced and traced passes
// so the tracing overhead is measured in the same process.
func measure(w bench, cfg config, traced bool) (*report, error) {
	tr := newTracer()
	rep := &report{layer: map[string]metricVal{}}
	// Set-up repeats cfg.setupReps times, and more while the set-ups so
	// far took under half a second, so a cheap set-up's median rests on
	// enough samples.
	reps := max(cfg.setupReps, 1)
	if w.setupOnce {
		reps = 1
	}
	var rn runner
	var setupTime time.Duration
	for i := 0; i < reps || (!w.setupOnce && i < 4*reps && setupTime < time.Second/2); i++ {
		if rn != nil {
			rn.close()
			rn = nil
			runtime.GC()
		}
		tr.on.Store(traced)
		var c cost
		var err error
		c.time(func() { rn, err = w.setup(cfg, tr) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setups.add(c)
		setupTime += c.elapsed
	}
	defer rn.close()

	passes := 0
	if fp, ok := rn.(fixedPasser); ok {
		passes = fp.passCount(cfg.seconds)
	}
	// A traced run's pass 0 is an untraced warm-up that the overhead
	// comparison leaves out: first-touch costs would land on one side.
	minPasses := 3
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if passes > 0 {
			if i >= max(passes, minPasses) {
				break
			}
		} else if i >= minPasses && !time.Now().Before(deadline) {
			break
		}
		on := traced && i%2 == 1
		tr.on.Store(on)
		// Every pass starts from a collected heap, so garbage left by
		// the previous pass does not bill its collection to this one.
		runtime.GC()
		cold, warm := rn.pass(tr, rep, i)
		switch {
		case on:
			rep.tracedColds.add(cold)
		case !traced || i > 0:
			rep.colds.add(cold)
			rep.warms.add(warm)
		}
	}
	tr.on.Store(false)
	if s, ok := rn.(summarizer); ok {
		s.summarize(rep)
	}

	// Live heap with the runner's results and caches still reachable.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(rn)

	if traced {
		rep.spans = tr.snapshot()
		rn.finish(rep.spans, rep)
		rep.setLayer("trace.overhead_ms", (median(rep.tracedColds.cpu)-median(rep.colds.cpu))*1e3, "ms")
	}
	return rep, nil
}

// envStamp says where numbers were taken, so figures from different core
// counts or toolchains are never compared by mistake.
type envStamp struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func stamp(root string) envStamp {
	return envStamp{
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// gitCommit reads HEAD without running git; a checkout without .git
// reports "none" and is identified by its source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// dot directories (.git, .bench_build).
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// percentile is the nearest-rank p-quantile of xs. It returns an error
// when fewer than ten samples lie beyond it, too few to support it; the
// tiny epsilon keeps float rounding of len*p from moving the rank.
func percentile(xs []float64, p float64) (v float64, err error) {
	if len(xs) == 0 {
		return 0, errors.New("no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p+0.999999999) - 1
	rank = min(max(rank, 0), len(s)-1)
	if beyond := len(s) - 1 - rank; beyond < 10 {
		return s[rank], fmt.Errorf("p%g of %d samples has %d beyond it, want >= 10", p*100, len(s), beyond)
	}
	return s[rank], nil
}
