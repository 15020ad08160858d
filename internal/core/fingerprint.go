package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/workload"
)

// Canonical returns the configuration exactly as Run will execute it:
// defaults filled in (CIS, price book, power model, queue ladder, horizon,
// checkpoint overhead, derived label). It is the normal form the
// simulation cache fingerprints, and what cache layers use to rebuild a
// Result identical to the one Run would have produced.
func (c Config) Canonical() Config { return c.withDefaults() }

// Fingerprint returns a content hash identifying the simulation outcome of
// running this configuration over jobs: two runs fingerprint equal if and
// only if core.Run is guaranteed to produce bit-identical aggregate
// results for them. ok=false means the configuration cannot be
// fingerprinted (an unrecognized policy or CIS implementation whose
// behaviour is opaque, per-job retention requested, or a pinned
// Mechanism) and the caller must simulate.
//
// The hash covers the canonical (defaulted) form, so a zero field and its
// explicit default collide as required, and it deliberately excludes or
// normalizes everything that cannot influence the numbers:
//
//   - Label never enters the hash — it only names the rendered row.
//   - Presentation-only retention (RetainJobs) makes the config
//     non-cacheable instead: retained runs carry per-job records the
//     cache does not store.
//   - With SpotMaxLen == 0 no job ever routes to spot, so the eviction
//     rate, checkpoint knobs and seed are zeroed before hashing; with
//     EvictionRate == 0 the eviction model never fires, so the seed
//     alone is zeroed (checkpoint padding still alters spot runtimes).
//   - AvgLengthOverride is hashed in sorted key order and restricted to
//     queues that exist in the ladder — entries for out-of-range queues
//     are ignored by the scheduler and must not perturb the key.
//
// Carbon and workload content enter through the traces' memoized
// fingerprints, so hashing a config is cheap enough to do per cell. The
// hashed inputs are the keySegments table below, every segment in order.
func (c Config) Fingerprint(jobs *workload.Trace) (fp [32]byte, ok bool) {
	k, ok := c.keyPrelude(jobs)
	if !ok || k.RetainJobs || k.Mechanism != Auto {
		// Retained records are not cached; a pinned mechanism must really
		// run, or a differential would compare another mechanism's entry.
		return fp, false
	}
	if k.Elastic != nil {
		// The allocator chooses replica grants, so its identity is part of
		// the outcome; unknown implementations may carry hidden state the
		// hash cannot see and spoil cacheability like unknown policies do.
		if k.atag, k.aparams, ok = allocatorIdentity(k.Allocator); !ok {
			return fp, false
		}
	}
	if k.SpotMaxLen == 0 {
		k.EvictionRate = 0
		k.CheckpointInterval = 0
		k.CheckpointOverhead = 0
		k.Seed = 0
	}
	if k.EvictionRate == 0 {
		k.Seed = 0
	}
	return k.sum("", fingerprintLayout, false), true
}

// DecisionFingerprint returns a content hash identifying the *decide
// phase* of running this configuration over jobs: two configurations
// decision-fingerprint equal if and only if the direct path's decide phase
// is guaranteed to produce the identical start-time column for both, so a
// DecisionPlan cached under the hash replays bit-identically
// (plan.go). ok=false means the configuration has no decision projection —
// it is not direct-eligible (work-conserving, spot routing, a plan-capable
// or unrecognized policy, an opaque CIS, a pinned Mechanism) — and callers
// must run the full path.
//
// The hash is Fingerprint's projection onto the keySegments marked
// decide, the inputs the decide phase reads: policy identity, the CIS
// trace (the forecasts policies consult — NOT the realized Carbon trace,
// which only accounting integrates), the queue ladder's classification
// bounds and wait guarantees, the average-length estimates, and the
// workload itself. Everything else is accounting replayed per cell —
// Reserved, prices, the power model, the realized carbon trace, the
// horizon, retention, spot knobs (forced inert by eligibility) — and is
// deliberately excluded, so a reserved-size or carbon-tax sweep shares one
// plan across every cell.
//
// Unlike Fingerprint, RetainJobs does not spoil the hash: retention
// changes what the replay materializes, never what the decide phase
// chooses.
func (c Config) DecisionFingerprint(jobs *workload.Trace) (fp [32]byte, ok bool) {
	k, ok := c.keyPrelude(jobs)
	if !ok || k.validate() != nil || !k.directEligible() {
		return fp, false
	}
	// The domain separator keeps a decision fingerprint from ever
	// colliding with a full simulation fingerprint of any configuration.
	return k.sum("gaia:decision-plan", decisionFingerprintLayout, true), true
}

// fingerprintLayout versions the Fingerprint hash layout. Bump it
// whenever the set or order of hashed inputs changes so stale on-disk
// cache entries written under the old layout can never collide with new
// keys.
const fingerprintLayout = 1

// decisionFingerprintLayout versions the DecisionFingerprint hash layout,
// independently of fingerprintLayout. Bump on any change to the set or
// order of decide segments; it also participates in the plan cache's
// on-disk entry names so stale artifacts never match.
const decisionFingerprintLayout = 1

// keyInputs is a canonical configuration plus the identities its cache
// keys hash in place of opaque values.
type keyInputs struct {
	Config
	jobs    *workload.Trace
	cis     *carbon.PerfectService
	ptag    int
	pparam  float64
	atag    int
	aparams [2]float64
}

// keyPrelude is the prelude both cache keys share: the defaulted config,
// its policy identity and its perfect CIS. ok=false means neither key
// exists.
func (c Config) keyPrelude(jobs *workload.Trace) (k keyInputs, ok bool) {
	k.Config = c.withDefaults()
	if k.Policy == nil || k.Carbon == nil || jobs == nil {
		return k, false
	}
	k.jobs = jobs
	if k.ptag, k.pparam, ok = policyIdentity(k.Policy); !ok {
		return k, false
	}
	k.cis, ok = k.CIS.(*carbon.PerfectService)
	return k, ok
}

// keySegment names one run of hashed inputs.
type keySegment uint8

const (
	segPolicy keySegment = iota
	segCarbon
	segCIS
	segAccounting
	segQueues
	segHorizon
	segAvgLength
	segSeed
	segJobs
	segElastic
)

// keySegments is the one table of hashed inputs, in hash order, each
// naming the Config fields it covers. Fingerprint writes every segment;
// DecisionFingerprint writes only the decide segments, the inputs the
// direct path's decide phase reads. Every hashed input is written by
// keyInputs.write and nowhere else, so the decision key is a projection of
// the full key by construction.
var keySegments = []struct {
	seg    keySegment
	fields string
	decide bool
}{
	{segPolicy, "Policy", true},
	{segCarbon, "Carbon", false},
	{segCIS, "CIS", true},
	{segAccounting, "Reserved WorkConserving SpotMaxLen EvictionRate CheckpointInterval CheckpointOverhead Pricing Power", false},
	{segQueues, "Queues ShortMax WaitShort WaitLong", true},
	{segHorizon, "Horizon", false},
	{segAvgLength, "AvgLengthOverride", true},
	{segSeed, "Seed", false},
	{segJobs, "", true}, // the workload, which is not a Config field
	{segElastic, "Elastic Allocator ElasticCapacity", false},
}

// sum hashes domain, layout and then the key segments in table order:
// every segment, or only the decide segments when decideOnly is set.
func (k *keyInputs) sum(domain string, layout uint64, decideOnly bool) [32]byte {
	var arr [512]byte
	b := u64(append(arr[:0], domain...), layout)
	for _, s := range keySegments {
		if s.decide || !decideOnly {
			b = k.write(b, s.seg)
		}
	}
	return sha256.Sum256(b)
}

// write appends one segment's inputs to b as fixed-width little-endian
// values and 32-byte trace digests.
func (k *keyInputs) write(b []byte, seg keySegment) []byte {
	switch seg {
	case segPolicy:
		b = u64(b, uint64(k.ptag))
		b = f64(b, k.pparam)
	case segCarbon:
		fp := k.Carbon.Fingerprint()
		b = append(b, fp[:]...)
	case segCIS:
		fp := k.cis.Trace().Fingerprint()
		b = append(b, fp[:]...)
	case segAccounting:
		b = u64(b, uint64(k.Reserved))
		if k.WorkConserving {
			b = u64(b, 1)
		} else {
			b = u64(b, 0)
		}
		b = u64(b, uint64(k.SpotMaxLen))
		b = f64(b, k.EvictionRate)
		b = u64(b, uint64(k.CheckpointInterval))
		b = u64(b, uint64(k.CheckpointOverhead))
		b = f64(b, k.Pricing.OnDemandHourly)
		b = f64(b, k.Pricing.ReservedFraction)
		b = f64(b, k.Pricing.SpotFraction)
		b = f64(b, k.Power.KWPerCPU)
	case segQueues:
		b = u64(b, uint64(len(k.Queues)))
		for _, q := range k.Queues {
			b = u64(b, uint64(q.MaxLength))
			b = u64(b, uint64(q.MaxWait))
		}
	case segHorizon:
		b = u64(b, uint64(k.Horizon))
	case segAvgLength:
		// Sorted key order, restricted to queues in the ladder: the
		// scheduler ignores the rest.
		keys := make([]int, 0, len(k.AvgLengthOverride))
		for q := range k.AvgLengthOverride {
			if int(q) >= 0 && int(q) < len(k.Queues) {
				keys = append(keys, int(q))
			}
		}
		sort.Ints(keys)
		b = u64(b, uint64(len(keys)))
		for _, q := range keys {
			b = u64(b, uint64(q))
			b = u64(b, uint64(k.AvgLengthOverride[workload.Queue(q)]))
		}
	case segSeed:
		b = u64(b, uint64(k.Seed))
	case segJobs:
		fp := k.jobs.Fingerprint()
		b = append(b, fp[:]...)
	case segElastic:
		// Elastic block, appended only when present: a rigid config's hash
		// is bit-for-bit what it was before elasticity existed, so the
		// on-disk cache stays valid without a layout bump, and the marker
		// keeps an elastic config from ever colliding with a rigid one.
		if k.Elastic != nil {
			fp := k.Elastic.Fingerprint()
			b = append(u64(b, 0xE1A5), fp[:]...)
			b = u64(b, uint64(k.atag))
			b = f64(b, k.aparams[0])
			b = f64(b, k.aparams[1])
			b = u64(b, uint64(k.ElasticCapacity))
		}
	}
	return b
}

// u64 and f64 append a value's fixed-width little-endian bytes.
func u64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func f64(b []byte, v float64) []byte { return u64(b, math.Float64bits(v)) }

// allocatorIdentity maps an elastic allocator to a stable tag plus its
// parameters, the allocator counterpart of policyIdentity. Tags are frozen
// — append new allocators, never renumber.
func allocatorIdentity(a policy.ElasticAllocator) (tag int, params [2]float64, ok bool) {
	switch a := a.(type) {
	case policy.StaticAlloc:
		return 1, params, true
	case policy.GreedyMarginal:
		thresh, preempt := a.Params()
		return 2, [2]float64{thresh, preempt}, true
	default:
		return 0, params, false
	}
}

// policyIdentity maps a policy to a stable tag plus its parameters. Only
// policies this function knows are cacheable: an unknown implementation
// may carry hidden state the fingerprint cannot see. Tags are frozen —
// append new policies, never renumber.
func policyIdentity(p policy.Policy) (tag int, param float64, ok bool) {
	switch p := p.(type) {
	case policy.NoWait:
		return 1, 0, true
	case policy.AllWait:
		return 2, 0, true
	case policy.LowestSlot:
		return 3, 0, true
	case policy.LowestWindow:
		return 4, 0, true
	case policy.CarbonTime:
		return 5, 0, true
	case policy.WaitAwhile:
		return 6, 0, true
	case policy.WaitAwhileEst:
		return 7, 0, true
	case policy.Ecovisor:
		return 8, p.Percentile(), true
	case policy.CriticalPathShift:
		return 9, 0, true
	default:
		return 0, 0, false
	}
}
