package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one round share
// the round's root ID through Parent links.
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same wrappers at almost no cost.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

type spanKey struct{}

// start opens a span named name under the span carried by ctx and
// returns the context its children must use and the function ending it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id := t.next.Add(1)
	begin := time.Now()
	return context.WithValue(ctx, spanKey{}, id), func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: begin, End: end})
		t.mu.Unlock()
	}
}

// record adds an already timed span (one whose interval the driver
// measured itself, such as replication lag) under the span in ctx.
func (t *tracer) record(ctx context.Context, name string, begin, end time.Time) {
	if t == nil {
		return
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.next.Add(1), Parent: parent, Name: name, Start: begin, End: end})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children overlap when client
// workers run in parallel, so the covered part is the union of the
// children's intervals clipped to the parent.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		var curStart, curEnd time.Time
		open := false
		for _, k := range kids {
			ks, ke := k.Start, k.End
			if ks.Before(s.Start) {
				ks = s.Start
			}
			if ke.After(s.End) {
				ke = s.End
			}
			if !ke.After(ks) {
				continue
			}
			if open && !ks.After(curEnd) {
				if ke.After(curEnd) {
					curEnd = ke
				}
				continue
			}
			if open {
				covered += curEnd.Sub(curStart)
			}
			curStart, curEnd, open = ks, ke, true
		}
		if open {
			covered += curEnd.Sub(curStart)
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
