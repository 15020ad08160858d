package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/carbonsched/gaia/internal/carbon"
	"github.com/carbonsched/gaia/internal/cloud"
	"github.com/carbonsched/gaia/internal/policy"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// fieldClass says how a Config field reaches the cache keys.
type fieldClass int

const (
	// hashedSim fields enter Fingerprint only: they change the simulated
	// outcome but not the decide phase (or make the config ineligible for
	// a decision plan altogether).
	hashedSim fieldClass = iota
	// hashedDecision fields enter DecisionFingerprint, and through it
	// Fingerprint too.
	hashedDecision
	// excluded fields never influence the numbers and enter no hash.
	excluded
	// spoils fields make the config non-cacheable when set.
	spoils
)

// TestConfigFieldAudit classifies every Config field by how it reaches
// the cache keys and checks the class behaviourally: the change must move
// exactly the hashes its class says, and a key it leaves unchanged must
// keep the bytes cached under it unchanged too. A new field fails the
// audit until it is listed here — the reminder to decide whether
// Fingerprint must hash it (and bump fingerprintLayout), or whether it
// must spoil caching.
func TestConfigFieldAudit(t *testing.T) {
	tr, jobs := fpFixture(t)
	tr2 := carbon.RegionSAAU.Generate(24*10, 2)
	spot := func(c *Config) {
		c.SpotMaxLen = 2 * simtime.Hour
		c.EvictionRate = 0.05
	}
	elastic := func(c *Config) { c.Elastic = workload.Degenerate(jobs) }
	fields := map[string]struct {
		class fieldClass
		// base optionally prepares both sides (e.g. enables spot so the
		// eviction knobs are not zeroed before hashing).
		base   func(*Config)
		change func(*Config)
	}{
		"Label":              {excluded, nil, func(c *Config) { c.Label = "renamed" }},
		"Policy":             {hashedDecision, nil, func(c *Config) { c.Policy = policy.LowestWindow{} }},
		"Carbon":             {hashedSim, nil, func(c *Config) { c.Carbon = tr2 }},
		"CIS":                {hashedDecision, nil, func(c *Config) { c.CIS = carbon.NewPerfectService(tr2) }},
		"Reserved":           {hashedSim, nil, func(c *Config) { c.Reserved = 9 }},
		"WorkConserving":     {hashedSim, nil, func(c *Config) { c.WorkConserving = true }},
		"SpotMaxLen":         {hashedSim, nil, func(c *Config) { c.SpotMaxLen = 2 * simtime.Hour }},
		"EvictionRate":       {hashedSim, spot, func(c *Config) { c.EvictionRate = 0.2 }},
		"CheckpointInterval": {hashedSim, spot, func(c *Config) { c.CheckpointInterval = simtime.Hour }},
		"CheckpointOverhead": {hashedSim, spot, func(c *Config) {
			c.CheckpointInterval = simtime.Hour
			c.CheckpointOverhead = 5 * simtime.Minute
		}},
		"Pricing": {hashedSim, nil, func(c *Config) {
			c.Pricing = cloud.DefaultPricing()
			c.Pricing.OnDemandHourly *= 2
		}},
		"Power": {hashedSim, nil, func(c *Config) {
			c.Power = cloud.DefaultPower()
			c.Power.KWPerCPU *= 2
		}},
		"ShortMax":  {hashedDecision, nil, func(c *Config) { c.ShortMax = 3 * simtime.Hour }},
		"WaitShort": {hashedDecision, nil, func(c *Config) { c.WaitShort = 3 * simtime.Hour }},
		"WaitLong":  {hashedDecision, nil, func(c *Config) { c.WaitLong = 12 * simtime.Hour }},
		"Queues": {hashedDecision, nil, func(c *Config) {
			c.Queues = []QueueSpec{{MaxLength: simtime.Hour, MaxWait: simtime.Hour}, {MaxWait: 12 * simtime.Hour}}
		}},
		"Horizon": {hashedSim, nil, func(c *Config) { c.Horizon = 5 * simtime.Day }},
		"AvgLengthOverride": {hashedDecision, nil, func(c *Config) {
			c.AvgLengthOverride = map[workload.Queue]simtime.Duration{workload.QueueLong: 7 * simtime.Hour}
		}},
		"Elastic":         {hashedSim, nil, elastic},
		"Allocator":       {hashedSim, elastic, func(c *Config) { c.Allocator = policy.GreedyMarginal{} }},
		"ElasticCapacity": {hashedSim, elastic, func(c *Config) { c.ElasticCapacity = 16 }},
		"RetainJobs":      {spoils, nil, func(c *Config) { c.RetainJobs = true }},
		"Seed":            {hashedSim, spot, func(c *Config) { c.Seed = 11 }},
		"Mechanism":       {spoils, nil, func(c *Config) { c.Mechanism = Engine }},
	}

	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := fields[typ.Field(i).Name]; !ok {
			t.Errorf("Config.%s is not classified: add it to TestConfigFieldAudit", typ.Field(i).Name)
		}
	}
	// Structurally, a hashed field sits in exactly one key segment, decide
	// exactly when its class is hashedDecision; other fields sit in none.
	segments := map[string][]bool{}
	for _, seg := range keySegments {
		for _, name := range strings.Fields(seg.fields) {
			if _, ok := fields[name]; !ok {
				t.Errorf("a key segment names %s, which the audit does not list", name)
			}
			segments[name] = append(segments[name], seg.decide)
		}
	}
	for name, f := range fields {
		hashed := f.class == hashedSim || f.class == hashedDecision
		switch segs := segments[name]; {
		case !hashed && len(segs) > 0:
			t.Errorf("%s: class %d but hashed by a key segment", name, f.class)
		case hashed && len(segs) != 1:
			t.Errorf("%s: hashed by %d key segments, want 1", name, len(segs))
		case hashed && segs[0] != (f.class == hashedDecision):
			t.Errorf("%s: key segment decide=%v contradicts class %d", name, segs[0], f.class)
		}
	}
	for name, f := range fields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("audit lists %s, which Config no longer has", name)
			continue
		}
		before := Config{Policy: policy.CarbonTime{}, Carbon: tr, CIS: carbon.NewPerfectService(tr)}
		if f.base != nil {
			f.base(&before)
		}
		after := before
		f.change(&after)

		fp0 := mustFingerprint(t, before, jobs)
		fp1, ok := after.Fingerprint(jobs)
		dfp0, dok0 := before.DecisionFingerprint(jobs)
		dfp1, dok1 := after.DecisionFingerprint(jobs)
		switch f.class {
		case spoils:
			if ok {
				t.Errorf("%s: setting it must make the config non-cacheable", name)
			}
		case excluded:
			if !ok || fp1 != fp0 {
				t.Errorf("%s: must not change the fingerprint", name)
			}
			if dok0 != dok1 || dfp0 != dfp1 {
				t.Errorf("%s: must not change the decision fingerprint", name)
			}
		case hashedSim:
			if !ok || fp1 == fp0 {
				t.Errorf("%s: must change the fingerprint", name)
			}
			if dok0 && dok1 && dfp0 != dfp1 {
				t.Errorf("%s: must not change the decision fingerprint", name)
			}
		case hashedDecision:
			if !ok || fp1 == fp0 {
				t.Errorf("%s: must change the fingerprint", name)
			}
			if !dok0 || !dok1 || dfp0 == dfp1 {
				t.Errorf("%s: must change the decision fingerprint", name)
			}
		}

		// Whatever the class, the bytes a cache stores may change only
		// where its key does, or a hit would serve a wrong result.
		if ok && fp1 == fp0 && !bytes.Equal(runAccumulatorBytes(t, before, jobs), runAccumulatorBytes(t, after, jobs)) {
			t.Errorf("%s: same fingerprint but a different result", name)
		}
		if dok0 && dok1 && dfp0 == dfp1 && !bytes.Equal(decidePlanBytes(t, before, jobs), decidePlanBytes(t, after, jobs)) {
			t.Errorf("%s: same decision fingerprint but a different plan", name)
		}
	}
}
