// Package runcache is a two-tier content-addressed cache for simulation
// results. Tier 1 is an in-memory single-flight map: every core.Run routed
// through a Cache first derives the canonical fingerprint of its inputs
// (core.Config.Fingerprint, which folds in the memoized carbon- and
// workload-trace hashes), and duplicate cells — the same (policy, region,
// workload, reserved, ...) appearing in several figures — block on the one
// in-flight computation instead of re-running it. Tier 2 is an optional
// on-disk store of encoded accumulators (internal/metrics codec) in an
// internal/blobdir directory, so a warm re-run of the whole figure suite
// skips simulation entirely.
//
// Correctness contract: a cached cell is indistinguishable from a
// recomputed one. The cache stores only the immutable streaming
// accumulator; every requester gets a private metrics.Result rebuilt from
// its own canonical config (label, pricing, horizon, region), exactly as
// core.Run would have assembled it. Disk entries are versioned
// (fingerprint layout, codec version, store version all participate in
// the key) and checksummed; any mismatch, truncation or corruption is
// logged and silently recomputed — a bad cache can cost time, never
// correctness.
package runcache

import (
	"context"
	"fmt"
	"log"
	"sync"

	"github.com/carbonsched/gaia/internal/blobdir"
	"github.com/carbonsched/gaia/internal/core"
	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/workload"
)

// StoreVersion names the on-disk entry format (file naming and contents
// beyond the accumulator codec itself). Bump to orphan all old files.
const StoreVersion = 1

// Outcome classifies how one Run request was served.
type Outcome int

const (
	// Computed: this call ran the simulation (and primed the cache).
	Computed Outcome = iota
	// Hit: served from an already-completed in-memory entry.
	Hit
	// Dedup: blocked on another caller's in-flight computation of the
	// same cell, then shared its accumulator.
	Dedup
	// DiskHit: decoded from the on-disk store, no simulation.
	DiskHit
	// RemoteHit: fetched from the shared fleet cache tier (another
	// replica computed this cell), no simulation.
	RemoteHit
	// Bypass: the configuration is not cacheable (unknown policy or CIS,
	// per-job retention); the simulation ran directly.
	Bypass
	// PlanHit: the cell was computed, but its decide phase was served from
	// an in-memory decision plan (another cell of the same decision
	// fingerprint decided first) and only the replay ran (plan.go).
	PlanHit
	// PlanDiskHit: like PlanHit, with the plan decoded from the on-disk
	// plan store.
	PlanDiskHit
)

// String returns the lower-case outcome name used in cache-stats lines.
func (o Outcome) String() string {
	switch o {
	case Computed:
		return "computed"
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	case DiskHit:
		return "disk-hit"
	case RemoteHit:
		return "remote-hit"
	case Bypass:
		return "bypass"
	case PlanHit:
		return "plan-hit"
	case PlanDiskHit:
		return "plan-disk-hit"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Avoided reports whether the outcome skipped a simulation this process
// would otherwise have paid for. Plan outcomes are deliberately excluded:
// they avoided only the decide phase, and the replay still ran — they are
// a partial computation, tallied separately.
func (o Outcome) Avoided() bool {
	return o == Hit || o == Dedup || o == DiskHit || o == RemoteHit
}

// AvoidedDecide reports whether the outcome skipped at least the decide
// phase of a simulation (plan outcomes skip only that; full cache hits
// skip everything).
func (o Outcome) AvoidedDecide() bool {
	return o.Avoided() || o == PlanHit || o == PlanDiskHit
}

// Cache deduplicates simulation runs by content fingerprint. The zero
// value is not ready; use New.
type Cache struct {
	// Logf receives diagnostics about unusable disk entries (corruption,
	// version skew, IO errors). Defaults to log.Printf; replace before
	// first use. Never called on the happy path.
	Logf func(format string, args ...any)

	results flights[*metrics.Accumulator]
	plans   flights[*core.DecisionPlan] // keyed by DecisionFingerprint

	mu     sync.Mutex   // guards dir and remote
	dir    *blobdir.Dir // nil = in-memory tiers only
	remote RemoteStore  // nil = no shared fleet tier
}

// New returns an empty in-memory cache. Call SetDir to add the disk tier.
func New() *Cache {
	return &Cache{Logf: log.Printf}
}

// SetDir attaches the on-disk store rooted at dir, creating it if needed.
// Results and decision plans share the one directory under their own
// file-name suffixes.
func (c *Cache) SetDir(dir string) error {
	d, err := blobdir.Open(dir)
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	c.mu.Lock()
	c.dir = d
	c.mu.Unlock()
	return nil
}

// Run serves one simulation cell through the cache: it returns the same
// (Result, error) core.Run(cfg, jobs) would, plus how the request was
// served. Results rebuilt from cache are bit-identical to fresh ones.
// Errors are never cached — a failing cell re-simulates on every request.
func (c *Cache) Run(cfg core.Config, jobs *workload.Trace) (*metrics.Result, Outcome, error) {
	return c.RunContext(context.Background(), cfg, jobs)
}

// RunContext is Run with cooperative cancellation, for serving layers
// whose clients may disconnect mid-simulation. A caller that becomes the
// single-flight leader passes ctx down to core.RunContext, so cancellation
// actually stops the event loop; a caller that joins an in-flight
// computation stops waiting when its own ctx is done, while the leader's
// computation keeps running for the remaining waiters. A canceled
// leader's error is returned to the leader alone and never cached: a
// waiter whose own ctx is still live takes over as the new leader and
// computes the cell itself (flights.do, in both the result and the plan
// tier). Serving layers that coalesce requests should still cancel the
// leader's ctx only when no requester remains interested (see
// internal/serve), since a takeover restarts the computation.
func (c *Cache) RunContext(ctx context.Context, cfg core.Config, jobs *workload.Trace) (*metrics.Result, Outcome, error) {
	fp, ok := cfg.Fingerprint(jobs)
	if !ok {
		res, err := core.RunContext(ctx, cfg, jobs)
		return res, Bypass, err
	}
	canon := cfg.Canonical()

	// Tier order for the single-flight leader: disk (local, trusted) →
	// remote fleet tier (another replica computed it) → compute. A remote
	// hit also warms the local disk tier; a computed cell is offered to
	// both, so the cell's ring owner ends up holding it for the fleet.
	// Both get the same encoded blob. Computation itself consults one
	// more tier: the decision-plan cache (plan.go), which lets a cell
	// whose decide phase matches an earlier cell replay accounting over
	// the shared plan (PlanHit/PlanDiskHit).
	outcome := Computed
	acc, how, err := c.results.do(ctx, fp, func() (*metrics.Accumulator, error) {
		c.mu.Lock()
		dir, remote := c.dir, c.remote
		c.mu.Unlock()
		if acc := loadDisk(c, dir, fp, accSuffix, metrics.DecodeAccumulator, "recomputing"); acc != nil {
			outcome = DiskHit
			return acc, nil
		}
		if acc, blob := c.loadRemote(ctx, remote, fp); acc != nil {
			outcome = RemoteHit
			c.storeDisk(dir, fp, accSuffix, blob)
			return acc, nil
		}
		res, served, err := c.computePlanned(ctx, dir, canon, jobs)
		outcome = served
		if err != nil {
			return nil, err
		}
		acc := res.Accumulator()
		if dir != nil || remote != nil {
			blob := metrics.EncodeAccumulator(acc)
			c.storeDisk(dir, fp, accSuffix, blob)
			c.storeRemote(ctx, remote, fp, blob)
		}
		return acc, nil
	})
	switch how {
	case inFlight:
		outcome = Dedup
	case complete:
		outcome = Hit
	}
	if err != nil {
		return nil, outcome, err
	}
	return buildResult(canon, jobs, acc), outcome, nil
}

// buildResult assembles the Result core.Run would have returned for this
// canonical config around a (shared, immutable) accumulator. It mirrors
// the literal at the end of core.Run exactly: streaming runs carry no
// per-job records, and every identity field comes from the requester's
// own canonical config, so two callers sharing one accumulator still get
// their own labels.
func buildResult(canon core.Config, jobs *workload.Trace, acc *metrics.Accumulator) *metrics.Result {
	res := &metrics.Result{
		Label:    canon.Label,
		Region:   canon.Carbon.Region(),
		Workload: jobs.Name,
		Reserved: canon.Reserved,
		Horizon:  canon.Horizon,
		Pricing:  canon.Pricing,
	}
	res.AttachAccumulator(acc)
	return res
}

// accSuffix names result entries in the store. The fingerprint layout
// version is already folded into the key; the codec and store versions
// are spelled out in the name, so entries written by an incompatible
// binary simply never match.
var accSuffix = fmt.Sprintf(".c%d.s%d.gacc", metrics.CodecVersion, StoreVersion)

// loadDisk reads and decodes one store entry, returning nil on any miss
// or problem. Absent files are silent; anything else is logged, naming
// the fallback the caller takes instead.
func loadDisk[T any](c *Cache, dir *blobdir.Dir, key [32]byte, suffix string, decode func([]byte) (*T, error), fallback string) *T {
	data, err := dir.Read(key, suffix)
	if err == nil && data != nil {
		var v *T
		if v, err = decode(data); err == nil {
			return v
		}
	}
	if err != nil {
		c.Logf("runcache: %s: %v (%s)", dir.Path(key, suffix), err, fallback)
	}
	return nil
}

// storeDisk publishes one encoded entry to the store. Failures are logged
// and otherwise ignored — the store is an accelerator, not a system of
// record.
func (c *Cache) storeDisk(dir *blobdir.Dir, key [32]byte, suffix string, data []byte) {
	if err := dir.Write(key, suffix, data); err != nil {
		c.Logf("runcache: writing %s: %v", dir.Path(key, suffix), err)
	}
}
