package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/httpapi"
)

// A traced run records spans around every call the benchmark makes into a
// layer's public surface: the HTTP exchanges it sends, the mounted
// handlers, the cluster backend, and in-process polls of run and service
// state. Nothing inside the program is instrumented; every span is taken
// from outside. A nil *tracer records nothing and wraps nothing.

// span is one timed call. Spans of one run or one attack share Key; Parent
// links a span to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Headers the generator sends so a handler span can name its parent.
const (
	hdrSpan = "X-Bench-Span"
	hdrKey  = "X-Bench-Key"
)

type tracer struct {
	epoch time.Time
	next  atomic.Int64
	armed atomic.Bool

	mu    sync.Mutex
	spans []span
	// open maps a run ID to its in-flight POST /api/v1/runs handler span,
	// the parent of the cluster backend call it makes.
	open map[string]int64

	// non2xx counts error responses of the public handlers, heal probes'
	// "not yet" answers excepted.
	non2xx atomic.Int64

	profile *os.File
	profErr error
}

// statusRecorder remembers the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[string]int64{}}
}

// arm starts recording; spans from set-up are not kept.
func (t *tracer) arm() {
	if t != nil {
		t.armed.Store(true)
	}
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span with a preallocated ID.
func (t *tracer) add(id, parent int64, name, key string, start, end time.Time) {
	if t == nil || !t.armed.Load() {
		return
	}
	sp := span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// openSpan is a span whose end is not known yet.
type openSpan struct {
	id, parent int64
	name, key  string
	start      time.Time
}

func (t *tracer) start(name, key string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{id: t.newID(), parent: parent, name: name, key: key, start: time.Now()}
}

func (t *tracer) finish(o *openSpan) {
	if o == nil {
		return
	}
	t.add(o.id, o.parent, o.name, o.key, o.start, time.Now())
}

func (t *tracer) headers(id int64, key string) map[string]string {
	if t == nil {
		return nil
	}
	return map[string]string{hdrSpan: strconv.FormatInt(id, 10), hdrKey: key}
}

func (t *tracer) openParent(key string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open[key]
}

// publicRoute names the v1 routes the generator uses.
func publicRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == "POST" && p == "/api/v1/runs":
		return "runs_post"
	case r.Method == "GET" && strings.HasPrefix(p, "/api/v1/runs/"):
		return "run_get"
	case r.Method == "POST" && p == "/api/v1/alerts":
		return "alerts_post"
	case r.Method == "POST" && p == "/api/v1/chaos/forge":
		return "forge_post"
	case r.Method == "POST" && p == "/api/v1/chaos/drain":
		return "drain_post"
	case r.Method == "GET" && p == "/api/v1/cluster":
		return "cluster_get"
	}
	return "other"
}

// wrapPublic times the mounted public handler (httpapi) per route.
func (t *tracer) wrapPublic(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := publicRoute(r)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		key := r.Header.Get(hdrKey)
		sp := t.start("httpapi."+route, key, parent)
		if route == "runs_post" && key != "" {
			t.mu.Lock()
			t.open[key] = sp.id
			t.mu.Unlock()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		if (rec.status < 200 || rec.status > 299) && route != "drain_post" {
			t.non2xx.Add(1)
		}
		if route == "runs_post" && key != "" {
			t.mu.Lock()
			delete(t.open, key)
			t.mu.Unlock()
		}
		t.finish(sp)
	})
}

// wrapInternal times a node's node-to-node handler per route.
func (t *tracer) wrapInternal(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := strings.TrimPrefix(r.URL.Path, "/internal/v1/")
		sp := t.start("cluster.internal."+route, node, 0)
		h.ServeHTTP(w, r)
		t.finish(sp)
	})
}

// wrapNode interposes the timed backend between ClusterServer and a node.
func (t *tracer) wrapNode(n *cluster.Node) httpapi.ClusterNode {
	if t == nil {
		return n
	}
	return timedNode{ClusterNode: n, tr: t}
}

func (t *tracer) cpuProfileStart() {
	if t == nil || t.profile == nil {
		return
	}
	t.profErr = pprof.StartCPUProfile(t.profile)
}

func (t *tracer) cpuProfileStop() {
	if t == nil || t.profile == nil || t.profErr != nil {
		return
	}
	pprof.StopCPUProfile()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover (ms).
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		covered := int64(0)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur := sp.Start
		for _, k := range kids {
			s, e := max(k.Start, cur), min(k.End, sp.End)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		self := sp.End - sp.Start - covered
		if self < 0 {
			self = 0
		}
		out[layerOf(sp.Name)] += float64(self) / 1e6
	}
	return out
}
