package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/wfjson"
)

// clusterIDs are the members of the benchmark's 3-node cluster; the lowest
// ID is the stamper.
var clusterIDs = []string{"n1", "n2", "n3"}

// handlerSlot lets a node's listener outlive the node, so a restarted
// follower keeps its address.
type handlerSlot struct{ h atomic.Value }

func (s *handlerSlot) set(h http.Handler) { s.h.Store(&h) }
func (s *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

var nodeDown = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "node down", http.StatusBadGateway)
})

// clusterStack is three cluster.Node members in one process, each serving
// InternalHandler and ClusterServer on one loopback listener, booted the way
// cmd/selfheal-server's cluster mode boots a member.
type clusterStack struct {
	tr    *tracer
	peers map[string]string
	slots map[string]*handlerSlot
	srvs  []*http.Server
	done  []chan error
	nodes map[string]*cluster.Node
	regs  map[string]*obs.Registry

	stamper  string
	poller   string // follower that answers status polls and heal probes
	rejoiner string // follower rebooted by restart
}

func bootCluster(tr *tracer) (*clusterStack, error) {
	c := &clusterStack{
		tr:    tr,
		peers: map[string]string{},
		slots: map[string]*handlerSlot{},
		nodes: map[string]*cluster.Node{},
		regs:  map[string]*obs.Registry{},
	}
	ring := cluster.NewRing(clusterIDs)
	c.stamper = ring.Stamper()
	for _, id := range ring.Members() {
		if id == c.stamper {
			continue
		}
		if c.poller == "" {
			c.poller = id
		} else {
			c.rejoiner = id
		}
	}
	for _, id := range clusterIDs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.peers[id] = ln.Addr().String()
		slot := &handlerSlot{}
		slot.set(nodeDown)
		c.slots[id] = slot
		srv := &http.Server{Handler: slot, ReadHeaderTimeout: 5 * time.Second}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		c.srvs = append(c.srvs, srv)
		c.done = append(c.done, done)
	}
	for _, id := range clusterIDs {
		if err := c.bootNode(id, false); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// bootNode creates, mounts and starts one member; join catches it up from
// the peers first, as selfheal-server -join does.
func (c *clusterStack) bootNode(id string, join bool) error {
	reg := obs.NewRegistry()
	n, err := cluster.New(cluster.Config{
		NodeID: id,
		Peers:  c.peers,
		// No journal: with journals the stamper fsyncs every commit
		// group, and latencies followed the shared host's disk rather
		// than the code (README.md, "Durability without fsync"). A
		// restarted follower catches up from its peers instead.
		Join:     join,
		Registry: reg,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/internal/", c.tr.wrapInternal(id, n.InternalHandler()))
	mux.Handle("/", c.tr.wrapPublic(httpapi.ClusterServer(reg, c.tr.wrapNode(n))))
	c.nodes[id], c.regs[id] = n, reg
	c.slots[id].set(mux)
	if err := n.Start(); err != nil {
		return fmt.Errorf("node %s start: %w", id, err)
	}
	return nil
}

func (c *clusterStack) close() {
	for _, srv := range c.srvs {
		_ = srv.Close()
	}
	for _, d := range c.done {
		<-d
	}
	for _, n := range c.nodes {
		n.Stop()
	}
}

func (c *clusterStack) url(id string) string { return "http://" + c.peers[id] }

// Runs are sent round-robin to every member, so most submissions are
// proxied and most runs hand their control token between nodes.
func (c *clusterStack) submitURL(i int) string { return c.url(clusterIDs[i%len(clusterIDs)]) }
func (c *clusterStack) pollURL(int) string     { return c.url(c.poller) }

// An attack goes to the incident leader of its alerts, the owner of the
// forged runs (see leaderAligned): the forge returns once that node has
// applied it, so the leader knows the instance the alert names.
func (c *clusterStack) attackURL(op attackOp) string {
	return c.url(cluster.NewRing(clusterIDs).OwnerOfRun(op.Forges[0].Run))
}

func (c *clusterStack) urls() []string {
	out := make([]string, 0, len(clusterIDs))
	for _, id := range clusterIDs {
		out = append(out, c.url(id))
	}
	return out
}

// clusterDoc is the part of GET /api/v1/cluster the benchmark reads.
type clusterDoc struct {
	Members []struct {
		ID      string `json:"id"`
		Alive   bool   `json:"alive"`
		Applied int    `json:"applied"`
		State   string `json:"state"`
	} `json:"members"`
}

func (c *clusterStack) topology(w *worker, id string, hdr map[string]string) (*clusterDoc, error) {
	r := w.do("GET", c.url(id)+"/api/v1/cluster", nil, hdr)
	if !r.ok() {
		return nil, errOf(r)
	}
	var doc clusterDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return nil, fmt.Errorf("cluster document: %w", err)
	}
	return &doc, nil
}

// probeHealed reports whether every member is alive and NORMAL, as the
// polled follower sees the cluster.
func (c *clusterStack) probeHealed(w *worker, hdr map[string]string) (bool, error) {
	doc, err := c.topology(w, c.poller, hdr)
	if err != nil {
		return false, err
	}
	for _, m := range doc.Members {
		if !m.Alive || m.State != "NORMAL" {
			return false, nil
		}
	}
	return true, nil
}

// restart stops one follower and boots it again with Join, which fetches
// the whole record stream from its peers, returning the time until it has
// caught up to the stamper and answers requests.
func (c *clusterStack) restart(w *worker) (float64, error) {
	id := c.rejoiner
	c.slots[id].set(nodeDown)
	c.nodes[id].Stop()
	delete(c.nodes, id)
	start := time.Now()
	if err := c.bootNode(id, true); err != nil {
		return 0, err
	}
	deadline := start.Add(60 * time.Second)
	for {
		doc, err := c.topology(w, id, nil)
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		applied := map[string]int{}
		for _, m := range doc.Members {
			applied[m.ID] = m.Applied
		}
		if applied[id] == applied[c.stamper] {
			return time.Since(start).Seconds(), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("restart: %s never caught up (%d of %d)", id, applied[id], applied[c.stamper])
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// timedNode is the httpapi.ClusterNode a node's public handler calls,
// timing run submissions through the cluster backend in a traced run.
type timedNode struct {
	httpapi.ClusterNode
	tr *tracer
}

func (n timedNode) SubmitRunSpec(id string, doc *wfjson.SpecJSON) error {
	sp := n.tr.start("cluster.backend.submit", id, n.tr.openParent(id))
	err := n.ClusterNode.SubmitRunSpec(id, doc)
	n.tr.finish(sp)
	return err
}
