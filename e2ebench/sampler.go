package main

import (
	"fmt"
	"sync"
	"time"

	"selfheal/internal/obs"
	"selfheal/internal/shard"
)

// introspect is the in-process view a traced run samples: public getters
// of the service or the cluster nodes, never their internals.
type introspect interface {
	// state is the §IV.C class: NORMAL, SCAN or RECOVERY (for a cluster,
	// the most severe class of any member).
	state() string
	// runStatus is the run's status as the executor reports it.
	runStatus(id string) string
	// deferred is the length of the deferred-run queue.
	deferred() int
	// history is the committed log length (cluster: stream records).
	history() int
	// lag is the largest replication lag the stamper reports.
	lag() int64
	// metrics is every node's cumulative accounting (GET /api/v1/state).
	metrics() []shard.Metrics
}

func (s *singleStack) state() string { return s.svc.State().String() }
func (s *singleStack) runStatus(id string) string {
	info, err := s.svc.RunInfo(id)
	if err != nil {
		return ""
	}
	return info.Status
}
func (s *singleStack) deferred() int { _, _, d := s.svc.QueueLengths(); return d }
func (s *singleStack) history() int  { return s.svc.Log().Len() }
func (s *singleStack) lag() int64    { return 0 }
func (s *singleStack) metrics() []shard.Metrics {
	return []shard.Metrics{s.svc.Metrics()}
}

func (c *clusterStack) state() string {
	worst := "NORMAL"
	for _, n := range c.nodes {
		switch n.StateString() {
		case "RECOVERY":
			worst = "RECOVERY"
		case "SCAN":
			if worst == "NORMAL" {
				worst = "SCAN"
			}
		}
	}
	return worst
}
func (c *clusterStack) runStatus(id string) string {
	info, err := c.nodes[c.poller].RunInfo(id)
	if err != nil {
		return ""
	}
	return info.Status
}
func (c *clusterStack) deferred() int { return 0 }

// history reads a follower: only followers export the records they
// applied.
func (c *clusterStack) history() int {
	return int(c.regs[c.poller].Gauge(obs.MClusterRecordsApplied).Value())
}
func (c *clusterStack) lag() int64 {
	var worst int64
	for _, id := range clusterIDs {
		if id != c.stamper {
			g := c.regs[c.stamper].Gauge(fmt.Sprintf("%s{peer=%q}", obs.MClusterReplicationLag, id))
			worst = max(worst, g.Value())
		}
	}
	return worst
}

func (c *clusterStack) metrics() []shard.Metrics {
	var out []shard.Metrics
	for _, id := range clusterIDs {
		out = append(out, c.nodes[id].MetricsDoc())
	}
	return out
}

// samplePeriod is how often a traced run samples state and run status.
const samplePeriod = 100 * time.Microsecond

// sampler polls the in-process getters while a traced pass measures:
// SCAN and RECOVERY intervals, each acknowledged run's execution until the
// executor reports it done, queue and lag maxima. A nil *sampler (an
// untraced pass) does nothing.
type sampler struct {
	tr *tracer
	in introspect

	mu      sync.Mutex
	watch   map[*runRec]bool
	scan    []float64 // ms per SCAN interval
	repair  []float64 // ms per RECOVERY interval
	exec    []float64 // ms from 201 to done
	defMax  int
	lagMax  int64
	alertsH []float64 // history length at each admitted alert

	stop chan struct{}
	done chan struct{}
}

func newSampler(tr *tracer, st stack) *sampler {
	if tr == nil {
		return nil
	}
	return &sampler{tr: tr, in: st, watch: map[*runRec]bool{}}
}

func (s *sampler) begin() {
	if s == nil {
		return
	}
	s.tr.arm()
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go s.loop()
}

func (s *sampler) end() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.tr.armed.Store(false)
}

func (s *sampler) watchRun(rec *runRec) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.watch[rec] = true
	s.mu.Unlock()
}

// history records and returns the log length when an alert was admitted.
func (s *sampler) history() int {
	if s == nil {
		return 0
	}
	h := s.in.history()
	s.mu.Lock()
	s.alertsH = append(s.alertsH, float64(h))
	s.mu.Unlock()
	return h
}

func (s *sampler) loop() {
	defer close(s.done)
	cur, since := s.in.state(), time.Now()
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		if st := s.in.state(); st != cur {
			s.closeInterval(cur, since, now)
			cur, since = st, now
		}
		d, l := s.in.deferred(), s.in.lag()
		s.mu.Lock()
		s.defMax, s.lagMax = max(s.defMax, d), max(s.lagMax, l)
		var check []*runRec
		for rec := range s.watch {
			check = append(check, rec)
		}
		s.mu.Unlock()
		for _, rec := range check {
			switch s.in.runStatus(rec.op.ID) {
			case "done", "failed":
				s.tr.add(s.tr.newID(), rec.span, "shard.exec", rec.op.ID, rec.acked, now)
				s.mu.Lock()
				s.exec = append(s.exec, msSince(rec.acked, now))
				delete(s.watch, rec)
				s.mu.Unlock()
			}
		}
	}
}

func (s *sampler) closeInterval(state string, from, to time.Time) {
	var name string
	switch state {
	case "SCAN":
		name = "recovery.scan"
	case "RECOVERY":
		name = "recovery.repair"
	default:
		return
	}
	s.tr.add(s.tr.newID(), 0, name, "state", from, to)
	s.mu.Lock()
	if state == "SCAN" {
		s.scan = append(s.scan, msSince(from, to))
	} else {
		s.repair = append(s.repair, msSince(from, to))
	}
	s.mu.Unlock()
}
