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

// span is one recorded interval at a layer boundary. Spans of one request
// share Req (the request's index in the workload sequence); Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing: every method is a no-op on it, so the untraced paths call the
// same code.
type recorder struct {
	epoch  time.Time
	paused atomic.Bool // set while a replay warms up: nothing is recorded
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// pause stops (true) or resumes (false) recording.
func (r *recorder) pause(p bool) {
	if r != nil {
		r.paused.Store(p)
	}
}

// active reports whether spans are being recorded.
func (r *recorder) active() bool { return r != nil && !r.paused.Load() }

type spanCtxKey struct{}

// spanRef is what a context carries: the open span's ID and request.
type spanRef struct{ id, req int }

// withRequest roots ctx at request req.
func withRequest(ctx context.Context, req int) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{req: req})
}

func refOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return r
}

// start opens a span named name under the span ctx carries and returns the
// derived context plus the function that ends the span; a non-empty suffix
// passed to it is appended to the span's name (".miss" for a tier miss).
func (r *recorder) start(ctx context.Context, name string) (context.Context, func(suffix string)) {
	if !r.active() {
		return ctx, func(string) {}
	}
	parent := refOf(ctx)
	begin := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent.id, Req: parent.req, Name: name, Start: begin})
	r.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id: id, req: parent.req}), func(suffix string) {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.spans[id-1].Name += suffix
		r.mu.Unlock()
	}
}

// add records a span whose duration was measured elsewhere and that ended
// now — for layers reachable only through a duration callback.
func (r *recorder) add(ref spanRef, name string, d time.Duration) {
	if !r.active() {
		return
	}
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: ref.id, Req: ref.req, Name: name, Start: end - d.Nanoseconds(), End: end})
	r.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans dumps the spans as one JSON array, written once the run ends.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
