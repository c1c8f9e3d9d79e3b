package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqRecord is one HTTP lookup as the client saw it. Times are offsets
// from the start of the traffic phase.
type reqRecord struct {
	due, dispatched, picked, sent, done time.Duration
	query                               []uint32
	status                              int
	respBytes                           int
	pageShare                           float64
	failedKeys                          int
	// ok: 200 with every key served; anything else counts as failed.
	ok bool
}

// fromDue is the latency the open loop reports: from when the request
// was due to be sent until its last response byte.
func (r *reqRecord) fromDue() time.Duration  { return r.done - r.due }
func (r *reqRecord) fromSend() time.Duration { return r.done - r.sent }

// httpTraffic drives /v1/lookup on a server over a fixed number of
// keep-alive connections.
type httpTraffic struct {
	url     string
	binary  bool       // negotiate MXE1 frames instead of JSON
	stream  [][]uint32 // queries in send order
	bodies  [][]byte   // JSON request bodies, parallel to stream
	conns   int
	chk     *checker
	tracer  *tracer // nil when untraced
	clients []*http.Client
}

func newHTTPTraffic(base string, binary bool, stream [][]uint32, conns int, chk *checker) *httpTraffic {
	t := &httpTraffic{url: base + "/v1/lookup", binary: binary, stream: stream, conns: conns, chk: chk}
	t.bodies = make([][]byte, len(stream))
	for i, q := range stream {
		b := append(make([]byte, 0, 10+7*len(q)), `{"keys":[`...)
		for j, k := range q {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(k), 10)
		}
		t.bodies[i] = append(b, "]}"...)
	}
	for i := 0; i < conns; i++ {
		t.clients = append(t.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return t
}

func (t *httpTraffic) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// connState is one connection's reusable scratch.
type connState struct {
	client *http.Client
	marks  *keyMarks
	body   bytes.Buffer
	spans  *spanBuf
}

func (t *httpTraffic) connStates() []*connState {
	cs := make([]*connState, t.conns)
	for i := range cs {
		cs[i] = &connState{client: t.clients[i], marks: t.chk.newMarks()}
		if t.tracer != nil {
			cs[i].spans = t.tracer.buf()
		}
	}
	return cs
}

// do sends stream[qi] and fills rec's send/done times and outcome. start
// is the phase's time origin.
func (t *httpTraffic) do(ctx context.Context, cs *connState, qi int, start time.Time, rec *reqRecord) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(t.bodies[qi]))
	if err != nil {
		t.chk.note(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if t.binary {
		req.Header.Set("Accept", "application/octet-stream")
	}
	rec.query = t.stream[qi]
	rec.sent = time.Since(start)
	resp, err := cs.client.Do(req)
	if err != nil {
		rec.done = time.Since(start)
		return // transport error: counted as failed
	}
	cs.body.Reset()
	_, err = io.Copy(&cs.body, resp.Body)
	resp.Body.Close()
	rec.done = time.Since(start)
	rec.respBytes = cs.body.Len()
	rec.status = resp.StatusCode
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent) {
		return // refused (503) or error: counted as failed
	}
	q := rec.query
	if t.binary {
		_, failed, err := t.chk.checkFrame(cs.marks, q, cs.body.Bytes())
		if err != nil {
			t.chk.note(fmt.Errorf("query %d: %w", qi, err))
			return
		}
		rec.failedKeys = failed
	} else {
		st, failed, err := t.chk.checkJSON(cs.marks, q, cs.body.Bytes())
		if err != nil {
			t.chk.note(fmt.Errorf("query %d: %w", qi, err))
			return
		}
		rec.pageShare = st.PageShare
		rec.failedKeys = failed
	}
	rec.ok = resp.StatusCode == http.StatusOK && rec.failedKeys == 0
}

// openLoop sends stream[first:] on a seeded Poisson schedule at rate
// lookups/s for dur, timing each request from when it was due. A
// dispatcher goroutine sleeps until each due time and hands the request
// to whichever connection is free; its lateness and the wait for a free
// connection are recorded apart from the server's time. Requests still
// unanswered 10 s after the schedule ends are abandoned and count as
// failed.
func (t *httpTraffic) openLoop(ctx context.Context, first int, rate float64, dur time.Duration, seed int64, onStart func(time.Time)) []reqRecord {
	rng := rand.New(rand.NewSource(seed))
	var dues []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * 1e9)
		if at >= dur {
			break
		}
		dues = append(dues, at)
	}
	recs := make([]reqRecord, len(dues))
	ctx, cancel := context.WithTimeout(ctx, dur+10*time.Second)
	defer cancel()
	// Sized to every send, so the dispatcher never blocks on a busy
	// server: queueing shows up in the from-due latency instead.
	jobs := make(chan int, len(dues))
	states := t.connStates()
	var wg sync.WaitGroup
	start := time.Now()
	if onStart != nil {
		onStart(start)
	}
	for _, cs := range states {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			for i := range jobs {
				rec := &recs[i]
				if ctx.Err() != nil {
					rec.done = time.Since(start)
					continue
				}
				rec.picked = time.Since(start)
				t.do(ctx, cs, (first+i)%len(t.stream), start, rec)
				if cs.spans != nil {
					cs.spans.request(int64(i), start, rec, time.Since(start))
				}
			}
		}(cs)
	}
	for i, due := range dues {
		sleepUntil(start.Add(due))
		recs[i].due = due
		recs[i].dispatched = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return recs
}

// sleepUntil blocks until t. It sleeps in the kernel (clock_nanosleep on
// a high-resolution timer) rather than on the Go runtime's timers, whose
// wakeups on a shared VM overshoot sub-millisecond sleeps by most of a
// millisecond and would make the generator, not the server, set the
// latency floor.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// closedLoop runs one caller per connection, each sending its next
// request as soon as the previous one completes, for dur. It returns the
// records of completed requests and the phase's wall time.
func (t *httpTraffic) closedLoop(ctx context.Context, first int, dur time.Duration) ([]reqRecord, time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, dur+10*time.Second)
	defer cancel()
	var next atomic.Int64
	next.Store(int64(first))
	states := t.connStates()
	per := make([][]reqRecord, len(states))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, cs := range states {
		wg.Add(1)
		go func(ci int, cs *connState) {
			defer wg.Done()
			for time.Since(start) < dur {
				var rec reqRecord
				rec.due = time.Since(start)
				rec.dispatched, rec.picked = rec.due, rec.due
				t.do(ctx, cs, int(next.Add(1)-1)%len(t.stream), start, &rec)
				per[ci] = append(per[ci], rec)
			}
		}(ci, cs)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}
