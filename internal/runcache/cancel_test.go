package runcache

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
)

// TestRunContextCanceledLeaderNotCached verifies a canceled leader's
// error is returned but never cached: the next request recomputes and
// succeeds.
func TestRunContextCanceledLeaderNotCached(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.RunContext(ctx, cfg, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader err = %v, want context.Canceled", err)
	}

	res, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatalf("recompute after cancel failed: %v", err)
	}
	if outcome != Computed {
		t.Fatalf("outcome after canceled leader = %v, want computed (errors are never cached)", outcome)
	}
	if res.JobCount() != jobs.Len() {
		t.Fatalf("recomputed result has %d jobs, want %d", res.JobCount(), jobs.Len())
	}
}

// TestRunContextCanceledWaiter verifies a waiter whose own context ends
// stops waiting with its context error while the leader completes and
// primes the cache normally.
func TestRunContextCanceledWaiter(t *testing.T) {
	cfg, jobs := fixture(t)
	c := New()

	// Occupy the single-flight slot by hand so the waiter deterministically
	// joins an in-flight entry.
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		t.Fatal("fixture config unexpectedly not fingerprintable")
	}
	e := occupy(&c.results, fp)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, outcome, err := c.RunContext(ctx, cfg, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v (outcome %v), want context.Canceled", err, outcome)
	} else if outcome != Dedup {
		t.Fatalf("canceled waiter outcome = %v, want dedup", outcome)
	}

	// "Leader" finishes: publish a real accumulator and check new callers
	// are served from it.
	res, err := core.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	e.val = res.Accumulator()
	close(e.done)

	cached, outcome, err := c.Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("outcome after publish = %v, want hit", outcome)
	}
	if cached.JobCount() != res.JobCount() {
		t.Fatalf("cached job count %d != computed %d", cached.JobCount(), res.JobCount())
	}
}

// occupy inserts an in-flight entry for key by hand, standing in for a
// leader that is still computing, so a test can decide when and how the
// flight ends.
func occupy[V any](f *flights[V], key [32]byte) *flight[V] {
	e := &flight[V]{done: make(chan struct{})}
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[[32]byte]*flight[V])
	}
	f.m[key] = e
	f.mu.Unlock()
	return e
}

// retire ends an occupied flight with err the way a failing leader does:
// the entry leaves the map before its waiters wake.
func retire[V any](f *flights[V], key [32]byte, e *flight[V], err error) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	e.err = err
	close(e.done)
}

// waitingCtx is a live context that reports the first time a caller
// selects on Done — on the cache's paths, the moment a waiter blocks on
// another caller's flight.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (w *waitingCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// TestPlanWaiterTakesOverCanceledLeader pins the waiter rule: a plan-tier
// leader canceled by its own request must not hand context.Canceled to a
// live waiter from another cell. The waiter takes over the decide phase
// and its cell completes, bit-identical to a fresh run.
func TestPlanWaiterTakesOverCanceledLeader(t *testing.T) {
	cfg, jobs := planFixture(t)
	c := New()
	dfp, ok := cfg.DecisionFingerprint(jobs)
	if !ok {
		t.Fatal("plan fixture unexpectedly has no decision fingerprint")
	}
	e := occupy(&c.plans, dfp)

	swept := cfg
	swept.Reserved = 40 // same decision fingerprint, different cell
	ctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	type reply struct {
		res     *metrics.Result
		outcome Outcome
		err     error
	}
	done := make(chan reply, 1)
	go func() {
		res, outcome, err := c.RunContext(ctx, swept, jobs)
		done <- reply{res, outcome, err}
	}()
	<-ctx.waiting
	retire(&c.plans, dfp, e, context.Canceled)

	got := <-done
	if got.err != nil {
		t.Fatalf("live waiter inherited the canceled leader's error: %v", got.err)
	}
	if got.outcome != Computed {
		t.Fatalf("waiter outcome = %v, want computed (it decided as the new leader)", got.outcome)
	}
	want, err := core.Run(swept, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.res, want)
}
