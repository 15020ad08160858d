package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/serve"
)

// serveMixWorkload runs gaia-serve in-process on a loopback listener and
// drives it with an open loop at a fixed rate over at most two client
// connections: 85% /v1/advise, 10% /v1/advise/batch, 5% /v1/simulate
// (every fifth simulate seed new, the rest repeats). Each pass sends one
// window of the seeded schedule, then replays the same window against the
// now-warm result cache. It is the only workload that exercises HTTP
// decode, admission, coalescing and the server's unbounded result cache.
var serveMixWorkload = bench{
	name:  "serve-mix",
	setup: setupServeMix,
}

// clientConns bounds the client's connections (and sending goroutines).
const clientConns = 2

const (
	classAdvise = iota
	classBatch
	classSimulate
	numClasses
)

var classNames = [numClasses]string{"advise", "batch", "simulate"}

// endpoint is each class's path and its /metrics endpoint label.
var endpoints = [numClasses]struct{ path, label string }{
	{"/v1/advise", "advise"}, {"/v1/advise/batch", "advise_batch"}, {"/v1/simulate", "simulate"},
}

type request struct {
	class int
	due   time.Duration // offset from the window's start
	body  []byte
}

type serveRunner struct {
	sz      sizes
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client

	// Schedule generator state, advanced window by window.
	rng      *rand.Rand
	regions  []string
	simSeeds []int64
	nextSeed int64
	simCount int

	// simCanon is each simulate body's first response with cache_outcome
	// and coalesced removed; every repeat must match it.
	simMu    sync.Mutex
	simCanon map[string]string

	before, last scrape // /metrics at the first pass and after the last
	lat          [numClasses][]float64
	late         []float64
	coalesced    int
	pcts         map[string]float64 // client latency percentiles, ms
	genLateMs    float64
}

func setupServeMix(cfg config, tr *tracer) (runner, error) {
	sp := tr.root("serve.new")
	srv, err := serve.New(serve.Config{
		TraceDays:     7,
		MaxConcurrent: runtime.GOMAXPROCS(0),
		QueueDepth:    1024,
		Logf:          func(string, ...any) {},
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serveRunner{
		sz:       cfg.size,
		srv:      srv,
		httpSrv:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		served:   make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		rng:      rand.New(rand.NewSource(cfg.seed)),
		nextSeed: cfg.seed * 1_000_003,
		simCanon: map[string]string{},
	}
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
	}}
	for _, spec := range carbon.Regions() {
		r.regions = append(r.regions, spec.Code)
	}
	// The advisory oracle tables for job lengths beyond the prewarmed
	// hour are built lazily by the first request that needs them; build
	// them all here so every window measures the same steady state.
	sp = tr.root("serve.warmup")
	defer sp.end()
	for _, region := range r.regions {
		for _, pol := range advisePolicies {
			for hours := 1; hours <= 12; hours++ {
				body := fmt.Appendf(nil, `{"policy":%q,"region":%q,"length_minutes":%d}`, pol, region, 60*hours)
				if b, status, err := r.post(endpoints[classAdvise].path, body); err != nil || status != http.StatusOK {
					r.close()
					return nil, fmt.Errorf("warm-up advise: status %d, %v: %.200s", status, err, b)
				}
			}
		}
	}
	return r, nil
}

var advisePolicies = []string{"carbon-time", "wait-awhile", "lowest-window", "nowait"}

// passCount fixes the number of windows from the time budget: the live
// heap grows with every new simulate seed, so it must not depend on how
// fast the machine runs. Four windows at least give every client
// percentile ten samples beyond it.
func (r *serveRunner) passCount(seconds float64) int {
	return max(int(seconds/(2*r.sz.serveWindow.Seconds())), 4)
}

// schedule draws the next window's requests from the seeded generator.
// A window's mix is exact, 85% advise, 10% batch and 5% simulate in a
// seeded order, and every fifth simulate request carries a new seed, so
// all seeds load the server alike; the seed draws the order and every
// request's parameters.
func (r *serveRunner) schedule() []request {
	n := int(r.sz.serveRate * r.sz.serveWindow.Seconds())
	gap := time.Duration(float64(time.Second) / r.sz.serveRate)
	classes := make([]int, n)
	for i := range classes {
		switch {
		case i < n*5/100:
			classes[i] = classSimulate
		case i < n*15/100:
			classes[i] = classBatch
		}
	}
	r.rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	horizon := int64(7*24*60 - 24*60)
	out := make([]request, n)
	for i, class := range classes {
		q := request{class: class, due: time.Duration(i) * gap}
		pol := advisePolicies[r.rng.Intn(len(advisePolicies))]
		region := r.regions[r.rng.Intn(len(r.regions))]
		switch class {
		case classAdvise:
			q.body = fmt.Appendf(nil, `{"policy":%q,"region":%q,"length_minutes":%d,"cpus":%d,"arrival_minute":%d}`,
				pol, region, 10+r.rng.Int63n(710), 1+r.rng.Intn(8), r.rng.Int63n(horizon))
		case classBatch:
			var b strings.Builder
			fmt.Fprintf(&b, `{"policy":%q,"region":%q,"jobs":[`, pol, region)
			for j := 0; j < r.sz.batchJobs; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `{"length_minutes":%d,"arrival_minute":%d}`, 10+r.rng.Int63n(710), r.rng.Int63n(horizon))
			}
			b.WriteString(`]}`)
			q.body = []byte(b.String())
		case classSimulate:
			var seed int64
			if r.simCount%5 == 0 {
				r.nextSeed++
				seed = r.nextSeed
				r.simSeeds = append(r.simSeeds, seed)
			} else {
				seed = r.simSeeds[r.rng.Intn(len(r.simSeeds))]
			}
			r.simCount++
			q.body = fmt.Appendf(nil, `{"policy":"carbon-time","region":%q,"jobs":%d,"days":%d,"seed":%d}`,
				r.regions[int(seed%int64(len(r.regions)))], r.sz.simJobs, r.sz.simDays, seed)
		}
		out[i] = q
	}
	return out
}

func (r *serveRunner) pass(tr *tracer, rep *report, idx int) (cold, warm cost) {
	if idx == 0 {
		s, err := r.scrape()
		rep.op(err)
		r.before = s
	}
	defer func() {
		s, err := r.scrape()
		rep.op(err)
		r.last = s
	}()
	sched := r.schedule()
	cold = r.window(tr, rep, sched, true)
	runtime.GC()
	warm = r.window(tr, rep, sched, false)
	return cold, warm
}

// window sends one schedule open-loop. Its cost is the process's CPU time
// while serving it, server and in-process client together, and the
// elapsed time from the first request's due time to the last response.
func (r *serveRunner) window(tr *tracer, rep *report, sched []request, cold bool) (c cost) {
	type outcome struct {
		lat time.Duration
		err error
	}
	out := make([]outcome, len(sched))
	// Buffered to the schedule size: the generator must never wait for
	// the senders, or it would stop being an open loop.
	next := make(chan int, len(sched))
	start := time.Now().Add(time.Millisecond)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				q := sched[i]
				sp := tr.root("serve.client." + classNames[q.class])
				body, status, err := r.post(endpoints[q.class].path, q.body)
				sp.end()
				out[i].lat = time.Since(start.Add(q.due))
				if err == nil {
					err = r.checkResponse(q, status, body)
				}
				out[i].err = err
			}
		}()
	}
	late := make([]float64, 0, len(sched))
	for i, q := range sched {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, float64(time.Since(due)))
		next <- i
	}
	close(next)
	wg.Wait()
	c.cpu = cpuTime() - cpu0
	c.elapsed = time.Since(start)

	for i, o := range out {
		rep.op(o.err)
		if cold && o.err == nil {
			r.lat[sched[i].class] = append(r.lat[sched[i].class], float64(o.lat))
		}
	}
	r.late = append(r.late, late...)
	return c
}

func (r *serveRunner) post(path string, body []byte) ([]byte, int, error) {
	resp, err := r.client.Post(r.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// checkResponse requires a 200 whose body parses; repeated simulate
// bodies must agree on everything but cache_outcome and coalesced.
func (r *serveRunner) checkResponse(q request, status int, body []byte) error {
	name := classNames[q.class]
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", name, status, body)
	}
	switch q.class {
	case classAdvise:
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("advise: %w", err)
		}
	case classBatch:
		return checkBatchBody(body, bytes.Count(q.body, []byte("length_minutes")))
	case classSimulate:
		canon, coalesced, err := canonicalSimulate(body)
		if err != nil {
			return err
		}
		r.simMu.Lock()
		defer r.simMu.Unlock()
		if coalesced {
			r.coalesced++
		}
		if prev, ok := r.simCanon[string(q.body)]; ok {
			return checkSimulateRepeat(prev, canon)
		}
		r.simCanon[string(q.body)] = canon
	}
	return nil
}

// checkBatchBody requires one parsable NDJSON verdict per job.
func checkBatchBody(body []byte, jobs int) error {
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			return fmt.Errorf("batch: line %d does not parse", lines+1)
		}
		lines++
	}
	if lines != jobs {
		return fmt.Errorf("batch: %d verdict lines for %d jobs", lines, jobs)
	}
	return sc.Err()
}

// canonicalSimulate parses a simulate response and re-encodes it without
// the fields that legitimately differ between repeats.
func canonicalSimulate(body []byte) (canon string, coalesced bool, err error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return "", false, fmt.Errorf("simulate: %w", err)
	}
	c, ok := v["coalesced"].(bool)
	if _, has := v["cache_outcome"]; !has || !ok {
		return "", false, errors.New("simulate: response lacks cache_outcome or coalesced")
	}
	delete(v, "cache_outcome")
	delete(v, "coalesced")
	b, err := json.Marshal(v)
	return string(b), c, err
}

func checkSimulateRepeat(first, now string) error {
	if first != now {
		return fmt.Errorf("simulate: repeated body answered %s, first answer %s", now, first)
	}
	return nil
}

// scrape is the part of /metrics the benchmark reads.
type scrape struct {
	sum, count map[string]float64 // request seconds by endpoint label
	shed       float64
	cache      map[string]float64 // simulate runcache outcomes
}

func (r *serveRunner) scrape() (scrape, error) {
	s := scrape{sum: map[string]float64{}, count: map[string]float64{}, cache: map[string]float64{}}
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, "{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		label := func(key string) string {
			_, after, ok := strings.Cut(labels, key+`="`)
			if !ok {
				return ""
			}
			l, _, _ := strings.Cut(after, `"`)
			return l
		}
		switch name {
		case "gaia_serve_request_seconds_sum":
			s.sum[label("endpoint")] = v
		case "gaia_serve_request_seconds_count":
			s.count[label("endpoint")] = v
		case "gaia_serve_shed_total":
			s.shed += v
		case "gaia_serve_simulate_cache_total":
			s.cache[label("outcome")] = v
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return s, nil
}

func (r *serveRunner) finish(spans []span, rep *report) {
	rep.spanMetric(spans, "serve.new", "serve.new_ms", "ms")
	for c, ep := range endpoints {
		n := r.last.count[ep.label] - r.before.count[ep.label]
		mean := (r.last.sum[ep.label] - r.before.sum[ep.label]) / max(n, 1)
		rep.setLayer("serve."+classNames[c]+"_server_us", mean*1e6, "us")
	}
	rep.setLayer("serve.shed", r.last.shed-r.before.shed, "count")
	rep.setLayer("serve.coalesced", float64(r.coalesced), "count")
	rep.setLayer("runcache.simulate_computed", r.last.cache["computed"]-r.before.cache["computed"], "count")
	rep.setLayer("runcache.simulate_hits", r.last.cache["hit"]-r.before.cache["hit"], "count")
	for name, v := range r.pcts {
		rep.setLayer("client."+name, v, "ms")
	}
	rep.setLayer("serve.gen_late_ms", r.genLateMs, "ms")
}

// summarize reports the client latencies of the cold windows, timed
// from each request's due time, and how late the generator ran. Each
// percentile needs ten samples beyond it.
func (r *serveRunner) summarize(rep *report) {
	r.pcts = map[string]float64{}
	for _, p := range []struct {
		class int
		q     float64
		name  string
	}{
		{classAdvise, 0.50, "advise_p50_ms"}, {classAdvise, 0.99, "advise_p99_ms"},
		{classBatch, 0.90, "batch_p90_ms"},
		{classSimulate, 0.50, "simulate_p50_ms"}, {classSimulate, 0.90, "simulate_p90_ms"},
	} {
		v, err := percentile(r.lat[p.class], p.q)
		rep.op(err)
		r.pcts[p.name] = v / 1e6
		rep.note("client %s = %.3f ms over %d samples", p.name, v/1e6, len(r.lat[p.class]))
	}
	r.genLateMs = quantile(r.late, 0.99) / 1e6
	rep.note("generator p99 lateness %.3f ms over %d sends; %d coalesced simulate responses", r.genLateMs, len(r.late), r.coalesced)
}

func (r *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx) // stops admissions; its own listener never started
	_ = r.httpSrv.Shutdown(ctx)
	if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve-mix: listener: %v\n", err)
	}
	r.client.CloseIdleConnections()
}
