package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one buffer per goroutine, until the run
// ends.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// spanBuf is a single goroutine's span buffer.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t, spans: make([]span, 0, 4096)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// add records a span and returns its ID.
func (b *spanBuf) add(name string, parent, req int64, start, end time.Time) int64 {
	id := b.t.nextID.Add(1)
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.t.origin).Nanoseconds(), End: end.Sub(b.t.origin).Nanoseconds(),
	})
	return id
}

// request records one HTTP lookup: a root span from its due time to the
// end of its output check, with the generator's lateness, the wait for a
// free connection, the server's time from send to last byte and the
// check as children.
func (b *spanBuf) request(req int64, phase time.Time, r *reqRecord, checked time.Duration) {
	at := func(d time.Duration) time.Time { return phase.Add(d) }
	root := b.add("lookup", 0, req, at(r.due), at(checked))
	b.add("bench.gen_lag", root, req, at(r.due), at(r.dispatched))
	b.add("bench.conn_wait", root, req, at(r.dispatched), at(r.picked))
	b.add("server.request", root, req, at(r.sent), at(r.done))
	b.add("bench.verify", root, req, at(r.done), at(checked))
}

// all returns every recorded span ordered by start time. Call it only
// after the goroutines that own the buffers have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cur := s.Start // children are in start order; merge overlaps
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
