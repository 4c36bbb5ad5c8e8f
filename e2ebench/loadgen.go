package main

import (
	"bytes"
	"container/heap"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The generator runs a time-ordered queue of events on a fixed set of
// workers, one HTTP request in flight per worker. Scheduled sends never wait
// for earlier operations to finish (open loop): a slow server makes events
// late, and since every latency is timed from the due time, that queueing
// is part of what the benchmark reports.

// event is one HTTP exchange due at a point in time.
type event struct {
	due time.Time
	seq int64
	// scheduled marks a send taken from the schedule (a run's submit or an
	// attack's first forge), whose lateness measures the generator itself.
	scheduled bool
	fn        func(w *worker)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// loadgen is the open-loop event runner.
type loadgen struct {
	mu       sync.Mutex
	q        eventHeap
	seq      int64
	late     []float64 // ms, scheduled events only
	wake     chan struct{}
	stop     chan struct{}
	haltOnce sync.Once
	wg       sync.WaitGroup

	workers []*worker
	dials   atomic.Int64
}

// worker owns one keep-alive connection per server it talks to.
type worker struct {
	client *http.Client
}

func newLoadgen(n int) *loadgen {
	g := &loadgen{wake: make(chan struct{}, 1), stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		d := &net.Dialer{}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		g.workers = append(g.workers, &worker{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}})
	}
	return g
}

// push queues fn to run at due.
func (g *loadgen) push(due time.Time, scheduled bool, fn func(w *worker)) {
	g.mu.Lock()
	g.seq++
	heap.Push(&g.q, &event{due: due, seq: g.seq, scheduled: scheduled, fn: fn})
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// start launches the workers; halt stops them, waits for them and closes
// their connections.
func (g *loadgen) start() {
	for _, w := range g.workers {
		g.wg.Add(1)
		go g.loop(w)
	}
}

func (g *loadgen) halt() {
	g.haltOnce.Do(func() {
		close(g.stop)
		g.wg.Wait()
		for _, w := range g.workers {
			w.client.CloseIdleConnections()
		}
	})
}

func (g *loadgen) loop(w *worker) {
	defer g.wg.Done()
	for {
		g.mu.Lock()
		if len(g.q) == 0 {
			g.mu.Unlock()
			select {
			case <-g.wake:
			case <-g.stop:
				return
			}
			continue
		}
		ev := g.q[0]
		if d := time.Until(ev.due); d > 0 {
			g.mu.Unlock()
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-g.wake:
				t.Stop()
			case <-g.stop:
				t.Stop()
				return
			}
			continue
		}
		heap.Pop(&g.q)
		if ev.scheduled {
			g.late = append(g.late, msSince(ev.due, time.Now()))
		}
		g.mu.Unlock()
		ev.fn(w)
	}
}

// lateness returns a copy of the scheduled events' lateness samples (ms).
func (g *loadgen) lateness() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]float64(nil), g.late...)
}

// response is one finished HTTP exchange.
type response struct {
	status int
	body   []byte
	start  time.Time
	end    time.Time
	err    error
}

func (r response) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// do performs one request on the worker's connection. hdr carries the
// trace correlation headers in a traced run.
func (w *worker) do(method, url string, body []byte, hdr map[string]string) response {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return response{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	r := response{start: time.Now()}
	resp, err := w.client.Do(req)
	if err != nil {
		r.err, r.end = err, time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status, r.end = resp.StatusCode, time.Now()
	return r
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }
