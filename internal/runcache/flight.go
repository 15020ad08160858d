package runcache

import (
	"context"
	"errors"
	"sync"
)

// flights is the single-flight map both tiers share, keyed by a content
// fingerprint: the result tier maps cell fingerprints to accumulators,
// the plan tier decision fingerprints to decision plans. The zero value
// is ready to use.
//
// Completed values stay in the map for the life of the cache; errors
// never do. A failing leader removes its entry before waking its
// waiters, who share the (deterministic) error — except a context error:
// that reflects the leader's own request ending, not the inputs, so a
// waiter whose own ctx is still live takes over as the new leader.
type flights[V any] struct {
	mu sync.Mutex
	m  map[[32]byte]*flight[V]
}

// flight is one key's slot. The leader closes done after setting val or
// err; the channel close publishes both to waiters.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// joined reports how a caller was served by flights.do.
type joined int

const (
	led      joined = iota // this caller ran compute
	inFlight               // waited on another caller's running compute
	complete               // found another caller's finished value
)

// do returns the value for key, running compute only if no other caller
// holds a live entry for it. A waiter whose ctx ends stops waiting with
// ctx.Err(); the leader's compute keeps running for the others.
func (f *flights[V]) do(ctx context.Context, key [32]byte, compute func() (V, error)) (V, joined, error) {
	for {
		f.mu.Lock()
		if f.m == nil {
			f.m = make(map[[32]byte]*flight[V])
		}
		e, exists := f.m[key]
		if !exists {
			e = &flight[V]{done: make(chan struct{})}
			f.m[key] = e
			f.mu.Unlock()
			e.val, e.err = compute()
			if e.err != nil {
				f.mu.Lock()
				delete(f.m, key)
				f.mu.Unlock()
			}
			close(e.done)
			return e.val, led, e.err
		}
		// The completed/in-flight split is informational only, so the
		// non-blocking probe racing a close is harmless.
		how := inFlight
		select {
		case <-e.done:
			how = complete
		default:
		}
		f.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, how, ctx.Err()
		}
		if ctx.Err() == nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			continue // the leader's request ended, not ours: take over
		}
		return e.val, how, e.err
	}
}
