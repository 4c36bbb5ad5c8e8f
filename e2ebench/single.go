package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"selfheal/internal/durable"
	"selfheal/internal/httpapi"
	"selfheal/internal/obs"
	"selfheal/internal/shard"
	"selfheal/internal/triage"
)

// singleShards is selfheal-server's -shards default.
const singleShards = 4

// singleStack is one shard.Service served by httpapi.ServerWithChaos on a
// loopback listener, booted the way cmd/selfheal-server boots it.
type singleStack struct {
	w   workload
	dir string
	tr  *tracer

	svc  *shard.Service
	reg  *obs.Registry
	srv  *http.Server
	url  string
	done chan error
}

func bootSingle(w workload, dir string, tr *tracer) (*singleStack, error) {
	s := &singleStack{w: w, dir: dir, tr: tr}
	if err := s.boot(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *singleStack) boot() error {
	cfg := shard.Config{Shards: singleShards}
	if s.w.triage {
		cfg.Triage = triage.All()
	}
	var err error
	if s.w.durable {
		// selfheal-server's -snapshot-every default. The WAL writes every
		// record, group and snapshot but skips the fsyncs: on a shared host
		// their latency moved by 5x within minutes, and a benchmark bound to
		// it measures the disk, not the program (README.md, "Durability
		// without fsync").
		cfg.SnapshotEvery = 4096
		s.svc, err = shard.NewDurable(cfg, s.dir, durable.Options{NoSync: true})
	} else {
		s.svc, err = shard.New(cfg, nil)
	}
	if err != nil {
		return err
	}
	s.reg = obs.NewRegistry()
	s.svc.Observe(s.reg)
	s.svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Stop()
		return err
	}
	s.srv = &http.Server{
		Handler:           s.tr.wrapPublic(httpapi.ServerWithChaos(s.reg, s.svc)),
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.url = "http://" + ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return nil
}

// shutdown stops serving, then stops the service (flushing the WAL).
func (s *singleStack) shutdown() {
	_ = s.srv.Close()
	<-s.done
	s.svc.Stop()
}

func (s *singleStack) close() {
	s.shutdown()
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

func (s *singleStack) submitURL(int) string      { return s.url }
func (s *singleStack) pollURL(int) string        { return s.url }
func (s *singleStack) attackURL(attackOp) string { return s.url }
func (s *singleStack) urls() []string            { return []string{s.url} }

// probeHealed asks the server whether it is back to NORMAL. The drain
// route reads the state before it waits, so with a 1 ns timeout it answers
// at once, 200 when NORMAL and 409 when not, and a probe never holds a
// generator worker. The 409 is the probe's "not yet", not a failed
// operation.
func (s *singleStack) probeHealed(w *worker, hdr map[string]string) (bool, error) {
	r := w.do("POST", s.url+"/api/v1/chaos/drain?wait=recovery&timeout=1ns", nil, hdr)
	if r.err == nil && r.status == http.StatusConflict {
		return false, nil
	}
	if !r.ok() {
		return false, errOf(r)
	}
	return true, nil
}

// restart stops the service and boots it again on the same directory,
// returning the time from the boot until the first request was served.
func (s *singleStack) restart(w *worker) (float64, error) {
	s.shutdown()
	start := time.Now()
	if err := s.boot(); err != nil {
		return 0, err
	}
	r := w.do("GET", s.url+"/healthz", nil, nil)
	if !r.ok() {
		return 0, fmt.Errorf("restart: first request: %v", errOf(r))
	}
	return time.Since(start).Seconds(), nil
}

func errOf(r response) error {
	if r.err != nil {
		return r.err
	}
	if r.status < 200 || r.status >= 300 {
		return fmt.Errorf("status %d: %s", r.status, truncate(r.body, 200))
	}
	return errors.New("no error")
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
