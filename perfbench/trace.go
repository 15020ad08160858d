package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a program layer, made from the benchmark's
// own code. Spans of one run, pass or request share a Group; Parent is
// the span whose call caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled; they are written out once
// the benchmark ends. Disabled, it records nothing, but spanRef.end still
// returns the elapsed time, so traced and untraced passes time the same
// calls the same way.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span. The zero value is a valid "no parent".
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	group  int64
	name   string
	start  time.Time
}

// root opens a span that starts a new group (one run, pass or request).
func (t *tracer) root(name string) spanRef {
	id := t.next.Add(1)
	return spanRef{t: t, id: id, group: id, name: name, start: time.Now()}
}

// child opens a span caused by parent, in parent's group.
func (t *tracer) child(parent spanRef, name string) spanRef {
	if parent.t == nil {
		return t.root(name)
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent.id, group: parent.group, name: name, start: time.Now()}
}

// end closes the span, records it when tracing is on, and returns its
// duration.
func (s spanRef) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.t.on.Load() {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Group: s.group, Name: s.name,
			Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch)),
		})
		s.t.mu.Unlock()
	}
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every recorded span with this name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range ch {
			cs, ce := max(c.Start, s.Start), min(c.End, s.End)
			if ce <= cs {
				continue
			}
			switch {
			case !open:
				curS, curE, open = cs, ce, true
			case cs > curE:
				covered += curE - curS
				curS, curE = cs, ce
			case ce > curE:
				curE = ce
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanSummary is one line of the per-name roll-up written beside the
// spans: how often a span ran and its median total and self time.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianMs float64 `json:"median_ms"`
	SelfMs   float64 `json:"median_self_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	total := map[string][]float64{}
	selfBy := map[string][]float64{}
	for _, s := range spans {
		total[s.Name] = append(total[s.Name], float64(s.dur())/1e6)
		selfBy[s.Name] = append(selfBy[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]spanSummary, 0, len(total))
	for name, ds := range total {
		out = append(out, spanSummary{Name: name, Count: len(ds), MedianMs: median(ds), SelfMs: median(selfBy[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes the environment stamp, every span and the per-name
// summary as JSON lines to path.
func writeSpans(path string, env envStamp, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("span file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	for _, s := range summarize(spans) {
		if err := enc.Encode(map[string]any{"summary": s}); err != nil {
			return err
		}
	}
	return w.Flush()
}
