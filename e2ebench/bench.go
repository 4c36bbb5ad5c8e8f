package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selfheal/internal/fuzz"
	"selfheal/internal/wfjson"
)

// generatorWorkers is the number of generator goroutines and therefore of
// requests in flight: the host's CPU count, so the generator never needs
// more processors than the server it shares them with.
var generatorWorkers = runtime.NumCPU()

// stack is the served system under test, single node or cluster.
type stack interface {
	introspect
	submitURL(i int) string
	pollURL(i int) string
	attackURL(op attackOp) string
	urls() []string
	probeHealed(w *worker, hdr map[string]string) (bool, error)
	restart(w *worker) (float64, error)
	close()
}

// runRec follows one run from its due time until a poll reports it done.
type runRec struct {
	op    runOp
	idx   int
	body  []byte
	span  int64
	due   time.Time
	acked time.Time
	done  time.Time
	polls int
	ok    bool
}

// healRec follows one attack from its first forge's due time until the
// server reports NORMAL again.
type healRec struct {
	op      attackOp
	span    int64
	due     time.Time
	done    time.Time
	history int
	ok      bool
	solo    bool // sent by soloHeals, outside the Poisson phase
}

// pass is one boot-measure-check cycle of a workload.
type pass struct {
	w       workload
	sch     *schedule
	dir     string
	tr      *tracer
	full    bool // bursts on set-ups of their own, and restarts; off for the reference pass of a traced run
	seconds float64

	st    stack
	g     *loadgen
	probe *sampler

	runs  []*runRec
	heals []*healRec
	solo  []*healRec

	mu         sync.Mutex
	attempted  int
	failures   []string
	remaining  atomic.Int64
	allDone    chan struct{}
	setupS     []float64
	restartS   []float64
	burstS     []float64 // duration of each burst
	heapMB     float64
	gcPauseMS  float64
	gcFraction float64
	layers     map[string]float64
}

func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

func (p *pass) attempt(n int) {
	p.mu.Lock()
	p.attempted += n
	p.mu.Unlock()
}

func (p *pass) finishOne() {
	if p.remaining.Add(-1) == 0 {
		close(p.allDone)
	}
}

func (p *pass) boot(i int) (stack, error) {
	dir := filepath.Join(p.dir, fmt.Sprintf("setup%d", i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if p.w.cluster {
		return bootCluster(p.tr)
	}
	if p.w.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return bootSingle(p.w, dir, p.tr)
}

// setup sets up the measured stack. A full pass first sets up the stacks
// of the bursts that precede the Poisson phase.
func (p *pass) setup() error {
	if p.full {
		before, _ := p.burstGroups()
		for i := 0; i < before; i++ {
			if err := p.spareBurst(i); err != nil {
				return err
			}
		}
	}
	st, err := p.setupOne(len(p.sch.Bursts))
	if err != nil {
		return err
	}
	p.st = st
	return nil
}

// setupOne boots stack i and preloads the history: one timed set-up.
func (p *pass) setupOne(i int) (stack, error) {
	// Collect the previous stack's garbage first, so no set-up pays for it.
	runtime.GC()
	start := time.Now()
	st, err := p.boot(i)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := p.preload(st); err != nil {
		st.close()
		return nil, err
	}
	p.setupS = append(p.setupS, time.Since(start).Seconds())
	return st, nil
}

// burstGroups splits the bursts into three groups of about equal size:
// before the Poisson phase, between chunks of the closed-loop heals, and
// between the restarts. The shared host's speed drifts over tens of
// seconds, so the bursts, the heals and the restarts each sample it across
// the run rather than in one stretch of it.
func (p *pass) burstGroups() (before, amidHeals int) {
	n := len(p.sch.Bursts)
	return n - 2*(n/3), n / 3
}

// spareBurst sets up a stack of its own for burst i, measures the burst on
// it, checks that stack's outputs and tears it down. A failed burst counts
// as a failure; a failed set-up is returned.
func (p *pass) spareBurst(i int) error {
	st, err := p.setupOne(i)
	if err != nil {
		return err
	}
	defer st.close()
	if err := p.burstOn(st, p.sch.Bursts[i]); err != nil {
		p.fail("%v", err)
	}
	return nil
}

// preload submits the history runs back to back on every generator
// connection and waits until they have all completed. A durable node then
// takes a checkpoint, so the measured phase starts at a fresh snapshot and
// every run it attacks lies above the compaction horizon.
func (p *pass) preload(st stack) error {
	g := newLoadgen(generatorWorkers)
	defer g.halt()
	p.attempt(len(p.sch.History))
	if _, err := submitAll(g, st, p.sch.History); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return p.settle(g.workers[0], st)
}

// submitAll sends runs back to back, spread over every worker of g, and
// returns when the first was sent.
func submitAll(g *loadgen, st stack, runs []runOp) (time.Time, error) {
	bodies := make([][]byte, len(runs))
	for i, op := range runs {
		bodies[i] = runBody(op)
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(g.workers))
	for _, w := range g.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runs) {
					return
				}
				r := w.do("POST", st.submitURL(i)+"/api/v1/runs", bodies[i], nil)
				if r.status != http.StatusCreated {
					errs <- fmt.Errorf("run %s: submit: %v", runs[i].ID, errOf(r))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return start, <-errs
}

// settle waits until the server is idle (every run retired, recovery
// drained) and checkpoints a durable node.
func (p *pass) settle(w *worker, st stack) error {
	url := st.urls()[0]
	if r := w.do("POST", url+"/api/v1/chaos/drain?wait=idle&timeout=120s", nil, nil); !r.ok() {
		return fmt.Errorf("drain: %v", errOf(r))
	}
	if p.w.durable {
		if r := w.do("POST", url+"/api/v1/chaos/checkpoint", nil, nil); !r.ok() {
			return fmt.Errorf("checkpoint: %v", errOf(r))
		}
	}
	return nil
}

func runBody(op runOp) []byte {
	b, err := json.Marshal(map[string]any{"id": op.ID, "spec": wfjson.FromBlueprint(op.BP)})
	if err != nil {
		panic(err) // a generated blueprint always encodes
	}
	return b
}

// measure runs the Poisson phase segment by segment: every run and attack
// of a segment, sent when due. Between segments the server drains to idle
// and a durable node checkpoints; that barrier is not measured.
func (p *pass) measure() {
	p.g = newLoadgen(generatorWorkers)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, busy0 := cpuSeconds()
	p.probe.begin()
	p.tr.cpuProfileStart()
	p.g.start()
	for seg, d := range p.sch.Segments {
		if seg > 0 && !p.barrier() {
			break
		}
		if !p.segment(seg, d) {
			break
		}
	}
	p.g.halt()
	p.tr.cpuProfileStop()
	p.probe.end()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	gc1, busy1 := cpuSeconds()
	p.gcFraction = ratio(gc1-gc0, busy1-busy0)
}

// cpuSeconds reads the CPU time the process has spent in the garbage
// collector and in total, idle time left out (runtime/metrics estimates,
// brought up to date at each collection).
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// segment reports whether every operation finished; after a timeout the
// remaining segments are skipped.
func (p *pass) segment(seg int, d time.Duration) bool {
	var runs []*runRec
	var heals []*healRec
	for i, op := range p.sch.Runs {
		if op.Seg == seg {
			runs = append(runs, &runRec{op: op, idx: i, body: runBody(op)})
		}
	}
	for _, op := range p.sch.Attacks {
		if op.Seg == seg {
			p.attempt(len(op.Forges))
			heals = append(heals, &healRec{op: op})
		}
	}
	p.attempt(len(runs))
	p.allDone = make(chan struct{})
	p.remaining.Store(int64(len(runs) + len(heals)))
	start := time.Now().Add(5 * time.Millisecond)
	for _, rec := range runs {
		rec.due = start.Add(rec.op.At)
		p.g.push(rec.due, true, func(w *worker) { p.submit(w, rec) })
	}
	for _, rec := range heals {
		rec.due = start.Add(rec.op.At)
		p.g.push(rec.due, true, func(w *worker) { p.attack(w, rec) })
	}
	p.runs = append(p.runs, runs...)
	p.heals = append(p.heals, heals...)
	if len(runs)+len(heals) > 0 {
		deadline := time.NewTimer(time.Until(start.Add(d + 60*time.Second)))
		select {
		case <-p.allDone:
		case <-deadline.C:
			// Stop the workers before reading what they were writing.
			p.g.halt()
		}
		deadline.Stop()
	}
	ok := true
	for _, r := range runs {
		if r.done.IsZero() {
			p.fail("run %s: not done by the deadline", r.op.ID)
			ok = false
		}
	}
	for _, h := range heals {
		if h.done.IsZero() {
			p.fail("attack %s: not healed by the deadline", h.op.ID)
			ok = false
		}
	}
	return ok
}

// barrier settles the server between two segments.
func (p *pass) barrier() bool {
	if err := p.settle(p.g.workers[0], p.st); err != nil {
		p.fail("barrier: %v", err)
		return false
	}
	return true
}

func (p *pass) submit(w *worker, rec *runRec) {
	rec.span = p.tr.newID()
	id := p.tr.newID()
	r := w.do("POST", p.st.submitURL(rec.idx)+"/api/v1/runs", rec.body, p.tr.headers(id, rec.op.ID))
	rec.body = nil // sent; heap_mb should not count it
	p.tr.add(id, rec.span, "client.submit", rec.op.ID, r.start, r.end)
	if r.status != http.StatusCreated {
		p.fail("run %s: submit: %v", rec.op.ID, errOf(r))
		p.endRun(rec, r.end, false)
		return
	}
	rec.acked = r.end
	p.probe.watchRun(rec)
	p.g.push(r.end.Add(p.w.pollEvery), false, func(w *worker) { p.poll(w, rec) })
}

func (p *pass) poll(w *worker, rec *runRec) {
	id := p.tr.newID()
	r := w.do("GET", p.st.pollURL(rec.idx)+"/api/v1/runs/"+rec.op.ID, nil, p.tr.headers(id, rec.op.ID))
	p.tr.add(id, rec.span, "client.poll", rec.op.ID, r.start, r.end)
	rec.polls++
	status, err := p.pollStatus(r)
	switch {
	case err != nil:
		p.fail("run %s: poll: %v", rec.op.ID, err)
		p.endRun(rec, r.end, false)
	case status == "done":
		p.endRun(rec, r.end, true)
	default:
		p.g.push(r.end.Add(p.w.pollEvery), false, func(w *worker) { p.poll(w, rec) })
	}
}

// pollStatus reads the answer to a run status poll. A failed run is an
// error; a run a cluster follower does not know yet reads as "".
func (p *pass) pollStatus(r response) (string, error) {
	if r.err == nil && r.status == http.StatusNotFound && p.w.cluster {
		// A follower answers for a run once its spec record has replicated
		// there.
		return "", nil
	}
	if !r.ok() {
		return "", errOf(r)
	}
	var info struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(r.body, &info); err != nil {
		return "", err
	}
	if info.Status == "failed" {
		return "", fmt.Errorf("run failed: %s", info.Error)
	}
	return info.Status, nil
}

func (p *pass) endRun(rec *runRec, at time.Time, ok bool) {
	rec.done, rec.ok = at, ok
	p.tr.add(rec.span, 0, "loadgen.run", rec.op.ID, rec.due, at)
	p.finishOne()
}

// attack forges every write set of op, then reports them in one POST and
// probes until the server is back to NORMAL.
func (p *pass) attack(w *worker, rec *healRec) {
	if p.forgeAndAlert(w, rec) {
		p.g.push(time.Now(), false, func(w *worker) { p.probeHeal(w, rec) })
	}
}

// forgeAndAlert sends an attack's forges and its alert POST, and reports
// whether the alerts were admitted; a failure ends the heal.
func (p *pass) forgeAndAlert(w *worker, rec *healRec) bool {
	rec.span = p.tr.newID()
	url := p.st.attackURL(rec.op)
	var batch [][]string
	for _, f := range rec.op.Forges {
		body, _ := json.Marshal(map[string]any{"run": f.Run, "task": fuzz.ForgeTask, "reads": f.Reads, "writes": f.Writes})
		id := p.tr.newID()
		r := w.do("POST", url+"/api/v1/chaos/forge", body, p.tr.headers(id, rec.op.ID))
		p.tr.add(id, rec.span, "client.forge", rec.op.ID, r.start, r.end)
		var resp struct {
			Instance string `json:"instance"`
		}
		if r.status != http.StatusCreated || json.Unmarshal(r.body, &resp) != nil {
			p.fail("attack %s: forge: %v", rec.op.ID, errOf(r))
			p.endHeal(rec, r.end, false)
			return false
		}
		bad := []string{resp.Instance}
		if f.Accuse {
			bad = append(bad, f.Victim+"/t0#1")
		}
		batch = append(batch, bad)
	}
	payload := map[string]any{"batch": batch}
	if len(batch) == 1 {
		payload = map[string]any{"bad": batch[0]}
	}
	body, _ := json.Marshal(payload)
	id := p.tr.newID()
	r := w.do("POST", url+"/api/v1/alerts", body, p.tr.headers(id, rec.op.ID))
	p.tr.add(id, rec.span, "client.alert", rec.op.ID, r.start, r.end)
	var resp struct {
		Admitted int `json:"admitted"`
		Dropped  int `json:"dropped"`
	}
	if r.status != http.StatusAccepted || json.Unmarshal(r.body, &resp) != nil {
		p.fail("attack %s: alert: %v", rec.op.ID, errOf(r))
		p.endHeal(rec, r.end, false)
		return false
	}
	if resp.Dropped > 0 || resp.Admitted != len(batch) {
		p.fail("attack %s: %d of %d alerts dropped", rec.op.ID, resp.Dropped, len(batch))
		p.endHeal(rec, r.end, false)
		return false
	}
	rec.history = p.probe.history()
	return true
}

// probeOnce asks whether the server is back to NORMAL and ends the heal
// when it is, or when the probe fails; it reports whether the heal ended.
func (p *pass) probeOnce(w *worker, rec *healRec) bool {
	id := p.tr.newID()
	start := time.Now()
	healed, err := p.st.probeHealed(w, p.tr.headers(id, rec.op.ID))
	end := time.Now()
	p.tr.add(id, rec.span, "client.probe", rec.op.ID, start, end)
	switch {
	case err != nil:
		p.fail("attack %s: heal probe: %v", rec.op.ID, err)
		p.endHeal(rec, end, false)
	case healed:
		p.endHeal(rec, end, true)
	default:
		return false
	}
	return true
}

func (p *pass) probeHeal(w *worker, rec *healRec) {
	if !p.probeOnce(w, rec) {
		p.g.push(time.Now().Add(p.w.probeEvery), false, func(w *worker) { p.probeHeal(w, rec) })
	}
}

func (p *pass) endHeal(rec *healRec, at time.Time, ok bool) {
	rec.done, rec.ok = at, ok
	p.tr.add(rec.span, 0, "loadgen.heal", rec.op.ID, rec.due, at)
	if !rec.solo {
		p.finishOne()
	}
}

// soloHeals sends closed-loop attacks one at a time on the server the
// Poisson phase left idle: each is forged, alerted and probed until the
// server is NORMAL again before the next is sent. heal_p50_ms is their
// median. Heals beside a stream of runs queue behind the runs and behind
// each other: when the shared host ran set-ups and bursts half as fast,
// those heals took up to 3.5x their usual time. These time the repair
// itself. It reports whether every heal succeeded.
func (p *pass) soloHeals(w *worker, ops []attackOp) bool {
	deadline := time.Now().Add(60 * time.Second)
	for _, op := range ops {
		rec := &healRec{op: op, solo: true, due: time.Now()}
		p.solo = append(p.solo, rec)
		p.attempt(len(op.Forges))
		if !p.forgeAndAlert(w, rec) {
			return false
		}
		for !p.probeOnce(w, rec) {
			if time.Now().After(deadline) {
				p.fail("attack %s: not healed by the deadline", op.ID)
				return false
			}
			time.Sleep(p.w.probeEvery)
		}
		if !rec.ok {
			return false
		}
	}
	return true
}

// burst sends every run of one burst back to back, then polls them in
// order, and returns the seconds from the first send until the last run
// was seen done.
func (p *pass) burst(g *loadgen, st stack, runs []runOp) (float64, error) {
	p.attempt(len(runs))
	start, err := submitAll(g, st, runs)
	if err != nil {
		return 0, fmt.Errorf("burst: %w", err)
	}
	w := g.workers[0]
	deadline := time.Now().Add(60 * time.Second)
	var last time.Time
	for i, op := range runs {
		for {
			r := w.do("GET", st.pollURL(i)+"/api/v1/runs/"+op.ID, nil, nil)
			status, err := p.pollStatus(r)
			if err != nil {
				return 0, fmt.Errorf("burst run %s: poll: %v", op.ID, err)
			}
			if status == "done" {
				last = r.end
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("burst run %s: not done by the deadline", op.ID)
			}
			time.Sleep(p.w.pollEvery)
		}
	}
	return last.Sub(start).Seconds(), nil
}

// burstOn measures one burst on a stack that has just been set up, then
// checks that stack's outputs. Each burst gets a fresh stack, so every
// burst meets the same state and the same heap whatever ran before it;
// on one long-lived stack the heap grew with every burst, and whether a
// collection of it fell into a burst set that burst's time.
// burst_runs_per_s is every burst's runs over their summed time, which
// charges each collection and snapshot its cost.
func (p *pass) burstOn(st stack, runs []runOp) error {
	g := newLoadgen(generatorWorkers)
	defer g.halt()
	sec, err := p.burst(g, st, runs)
	if err != nil {
		return err
	}
	p.burstS = append(p.burstS, sec)
	p.oracles(g.workers[0], st, append(append([]runOp(nil), p.sch.History...), runs...))
	return nil
}

// checkRuns checks the drained run listing: every run the pass submitted
// exists and is done.
func checkRuns(body []byte, want int) error {
	var infos []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(body, &infos); err != nil {
		return err
	}
	if len(infos) != want {
		return fmt.Errorf("%d runs listed, %d submitted", len(infos), want)
	}
	for _, in := range infos {
		if in.Status != "done" {
			return fmt.Errorf("run %s ended %q %s", in.ID, in.Status, in.Error)
		}
	}
	return nil
}

// verifyDoc is GET /api/v1/chaos/verify.
type verifyDoc struct {
	CheckIndex    string `json:"check_index"`
	RecoveryError string `json:"recovery_error"`
}

// oracles drains st and checks its outputs: every run of runs done, the
// store equal to the attack-free reference, the version index sound and no
// failed repair; on a cluster, byte-identical stores on every member.
func (p *pass) oracles(w *worker, st stack, runs []runOp) (storeBytes []byte) {
	check := func(name string, err error) {
		p.attempt(1)
		if err != nil {
			p.fail("oracle %s: %v", name, err)
		}
	}
	urls := st.urls()
	if r := w.do("POST", urls[0]+"/api/v1/chaos/drain?wait=idle&timeout=120s", nil, nil); !r.ok() {
		check("drain", errOf(r))
		return nil
	}
	want := len(runs)
	r := w.do("GET", urls[0]+"/api/v1/runs", nil, nil)
	if !r.ok() {
		check("runs-done", errOf(r))
	} else {
		check("runs-done", checkRuns(r.body, want))
	}

	var stores [][]byte
	for _, u := range urls {
		r := w.do("GET", u+"/api/v1/store", nil, nil)
		if !r.ok() {
			check("store", errOf(r))
			return nil
		}
		stores = append(stores, r.body)
		v := w.do("GET", u+"/api/v1/chaos/verify", nil, nil)
		var doc verifyDoc
		if !v.ok() {
			check("verify", errOf(v))
		} else if err := json.Unmarshal(v.body, &doc); err != nil {
			check("verify", err)
		} else if doc.CheckIndex != "ok" || doc.RecoveryError != "" {
			check("verify", fmt.Errorf("%s: check_index %q, recovery_error %q", u, doc.CheckIndex, doc.RecoveryError))
		} else {
			check("verify", nil)
		}
	}
	for i := 1; i < len(stores); i++ {
		if !bytes.Equal(stores[0], stores[i]) {
			check("replicas-identical", fmt.Errorf("store of %s differs from %s", urls[i], urls[0]))
		} else {
			check("replicas-identical", nil)
		}
	}

	ref, err := reference(runs)
	if err != nil {
		check("reference", err)
		return stores[0]
	}
	var got map[string]int64
	if err := json.Unmarshal(stores[0], &got); err != nil {
		check("attack-free-store", err)
		return stores[0]
	}
	for k := range got {
		if strings.HasPrefix(k, sharedPrefix) {
			delete(got, k)
		}
	}
	if diff := fuzz.DiffStores(ref, got); diff != "" {
		check("attack-free-store", fmt.Errorf("store differs from the attack-free execution:\n%s", truncate([]byte(diff), 2000)))
	} else {
		check("attack-free-store", nil)
	}
	return stores[0]
}

// healChunks sends the closed-loop heals; a full pass sends them in
// chunks with one burst between two chunks.
func (p *pass) healChunks(w *worker) {
	b, amid := p.burstGroups()
	chunks := 1
	if p.full {
		chunks += amid
	}
	for c := 0; c < chunks; c++ {
		if !p.soloHeals(w, p.sch.Solo[c*len(p.sch.Solo)/chunks:(c+1)*len(p.sch.Solo)/chunks]) {
			return
		}
		if c < chunks-1 {
			if err := p.spareBurst(b + c); err != nil {
				p.fail("%v", err)
				return
			}
		}
	}
}

// late alternates the restarts of the measured stack with the last group
// of bursts.
func (p *pass) late(w *worker, before []byte) {
	restartOK := true
	first, amid := p.burstGroups()
	b := first + amid
	for i := 0; i < p.w.restarts || b < len(p.sch.Bursts); i++ {
		if i < p.w.restarts && restartOK {
			restartOK = p.restart(w, before)
		}
		if b < len(p.sch.Bursts) {
			if err := p.spareBurst(b); err != nil {
				p.fail("%v", err)
				return
			}
			b++
		}
	}
}

// restart reboots the measured stack once and reports whether it came
// back. A durable node or a cluster must serve the same store bytes
// afterwards.
func (p *pass) restart(w *worker, before []byte) bool {
	p.attempt(1)
	// Collect the previous incarnation's garbage first, so no restart pays
	// for it.
	runtime.GC()
	sec, err := p.st.restart(w)
	if err != nil {
		p.fail("restart: %v", err)
		return false
	}
	p.restartS = append(p.restartS, sec)
	if !p.w.durable && !p.w.cluster {
		return true // an in-memory node restarts empty
	}
	for _, u := range p.st.urls() {
		p.attempt(1)
		r := w.do("GET", u+"/api/v1/store", nil, nil)
		if !r.ok() {
			p.fail("oracle restart-store: %v", errOf(r))
		} else if !bytes.Equal(r.body, before) {
			p.fail("oracle restart-store: %s serves other store bytes after the restart", u)
		}
	}
	return true
}

// submitted lists every run the pass sent to its measured stack: the
// history and the Poisson runs.
func (p *pass) submitted() []runOp {
	return append(append([]runOp(nil), p.sch.History...), p.sch.Runs...)
}

// liveHeapMB forces a collection and reports the live heap of the whole
// process: run subtracts what the benchmark itself holds before the boot.
// The second collection empties what sync.Pools kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run executes one boot-measure-check cycle and leaves the raw records in
// p.
func (p *pass) run() error {
	// The schedule and everything else the benchmark holds is live before
	// the boot; heap_mb is the growth from here.
	heap0 := liveHeapMB()
	if err := p.setup(); err != nil {
		return err
	}
	defer p.st.close()
	ctl := newLoadgen(1)
	defer ctl.halt()
	w := ctl.workers[0]
	p.probe = newSampler(p.tr, p.st)
	// Per-layer counters are the /varz deltas over the Poisson phase, so
	// neither the preload nor the bursts dilute them.
	v0 := p.varz(w)
	p.measure()
	p.layers = p.collectLayers(w, v0)
	p.healChunks(w)
	before := p.oracles(w, p.st, p.submitted())
	p.heapMB = liveHeapMB() - heap0
	if p.full {
		p.late(w, before)
		p.layers = mergeRestartLayers(p.layers, p.st)
	}
	return nil
}

// sortedFailures returns the failures in order, for the summary.
func (p *pass) sortedFailures() []string {
	out := append([]string(nil), p.failures...)
	sort.Strings(out)
	return out
}
