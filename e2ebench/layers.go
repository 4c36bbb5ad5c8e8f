package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"

	"selfheal/internal/obs"
)

// na marks a per-layer percentile without enough samples beyond it.
const na = -1

// varz is one node's GET /varz document.
type varz map[string]float64

func fetchVarz(w *worker, url string) (varz, error) {
	r := w.do("GET", url+"/varz", nil, nil)
	if !r.ok() {
		return nil, errOf(r)
	}
	v := varz{}
	if err := json.Unmarshal(r.body, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// sum adds a metric over every node, labeled series included.
func sum(vs []varz, name string) float64 {
	t := 0.0
	for _, v := range vs {
		for k, x := range v {
			if k == name || strings.HasPrefix(k, name+"{") {
				t += x
			}
		}
	}
	return t
}

// histMean is a histogram's sum over its count, over every node.
func histMean(vs []varz, name string) float64 {
	return ratio(sum(vs, name+"_sum"), sum(vs, name+"_count"))
}

// histLE is the upper bound of the bucket holding the q-quantile: the
// exported histograms have decade buckets, so this is the resolution
// available from outside.
func histLE(vs []varz, name string, q float64) float64 {
	n := sum(vs, name+"_count")
	if n == 0 {
		return 0
	}
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for _, v := range vs {
		for k, x := range v {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`), 64)
			if err != nil {
				le = math.Inf(1)
			}
			bs = append(bs, bucket{le, x})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	// Merge equal bounds across nodes.
	var merged []bucket
	for _, b := range bs {
		if len(merged) > 0 && merged[len(merged)-1].le == b.le {
			merged[len(merged)-1].cum += b.cum
			continue
		}
		merged = append(merged, b)
	}
	for _, b := range merged {
		if b.cum >= q*n {
			return b.le
		}
	}
	return math.Inf(1)
}

// varz fetches every node's /varz in a traced pass (nil otherwise).
func (p *pass) varz(w *worker) []varz {
	if p.tr == nil {
		return nil
	}
	var vs []varz
	for _, u := range p.st.urls() {
		v, err := fetchVarz(w, u)
		if err != nil {
			p.fail("varz %s: %v", u, err)
			return nil
		}
		vs = append(vs, v)
	}
	return vs
}

// pct is a per-layer percentile, or na.
func pct(samples []float64, p float64) float64 {
	v, ok := percentile(append([]float64(nil), samples...), p)
	if !ok {
		return na
	}
	return v
}

// collectLayers computes the per-layer metrics of a traced pass from the
// spans, the sampler and every node's /varz. An untraced pass returns nil.
func (p *pass) collectLayers(w *worker, before []varz) map[string]float64 {
	if p.tr == nil {
		return nil
	}
	m := map[string]float64{}
	vs := p.varz(w)
	for i, v := range vs {
		if i < len(before) {
			for k, x := range before[i] {
				v[k] -= x
			}
		}
	}
	spans := p.tr.snapshot()
	byName := map[string][]float64{}
	byID := map[int64]span{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp.ms())
		byID[sp.ID] = sp
	}

	// loadgen
	late := p.g.lateness()
	m["loadgen.late_p99_ms"] = pct(late, 0.99)
	polls, runs := 0, 0
	for _, r := range p.runs {
		polls += r.polls
		runs++
	}
	m["loadgen.polls_per_run"] = ratio(float64(polls), float64(runs))
	m["loadgen.poll_interval_ms"] = float64(p.w.pollEvery) / 1e6
	m["loadgen.connections"] = float64(p.g.dials.Load())
	m["loadgen.behind"] = 0
	if p.behind() {
		m["loadgen.behind"] = 1
	}
	s := p.probe
	m["loadgen.history_at_first_alert"], m["loadgen.history_at_last_alert"] = 0, 0
	if len(s.alertsH) > 0 {
		m["loadgen.history_at_first_alert"] = s.alertsH[0]
		m["loadgen.history_at_last_alert"] = s.alertsH[len(s.alertsH)-1]
	}

	// httpapi: handler spans, and the client round trip minus the handler
	// it caused.
	m["httpapi.runs_post.handler_ms_p50"] = pct(byName["httpapi.runs_post"], 0.5)
	m["httpapi.runs_post.handler_ms_p99"] = pct(byName["httpapi.runs_post"], 0.99)
	m["httpapi.run_get.handler_ms_p50"] = pct(byName["httpapi.run_get"], 0.5)
	m["httpapi.alerts_post.handler_ms_p50"] = pct(byName["httpapi.alerts_post"], 0.5)
	m["httpapi.forge_post.handler_ms_p50"] = pct(byName["httpapi.forge_post"], 0.5)
	var transport []float64
	for _, sp := range spans {
		if layerOf(sp.Name) != "httpapi" || sp.Parent == 0 {
			continue
		}
		if c, ok := byID[sp.Parent]; ok && layerOf(c.Name) == "client" {
			transport = append(transport, c.ms()-sp.ms())
		}
	}
	m["httpapi.transport_ms_p50"] = pct(transport, 0.5)
	m["httpapi.non2xx"] = float64(p.tr.non2xx.Load())

	// shard
	m["shard.exec_ms_p50"] = pct(s.exec, 0.5)
	m["shard.exec_ms_p99"] = pct(s.exec, 0.99)
	m["shard.commit_fold_mean"] = ratio(sum(vs, obs.MShardCommitEntries), sum(vs, obs.MShardCommitBatches))
	m["shard.deferred_max"] = float64(s.defMax)
	m["shard.quiesce_ms_mean"] = 1e3 * histMean(vs, obs.MShardQuiesceSeconds)
	m["shard.quiesce_ms_p99_le"] = 1e3 * histLE(vs, obs.MShardQuiesceSeconds, 0.99)
	m["shard.quiesced_shards_mean"] = histMean(vs, obs.MShardQuiescedShards)

	// wlog
	m["wlog.hook_ms_per_entry"] = 1e3 * ratio(sum(vs, obs.MWlogHookSeconds), sum(vs, obs.MWlogAppends))
	m["wlog.entries_end"] = float64(s.in.history())

	// recovery, triage
	m["recovery.scan_ms_p50"] = pct(s.scan, 0.5)
	m["recovery.scan_ms_p90"] = pct(s.scan, 0.9)
	m["recovery.repair_ms_p50"] = pct(s.repair, 0.5)
	m["recovery.repair_ms_p90"] = pct(s.repair, 0.9)
	alerts := 0.0
	for _, h := range p.heals {
		alerts += float64(len(h.op.Forges))
	}
	// Every replica applies every repair, so the first node's totals are
	// the cluster's; alerts are lost at whichever leader admits them.
	docs := s.in.metrics()
	lost := 0
	for _, d := range docs {
		lost += d.AlertsLost
	}
	m["recovery.undone_per_alert"] = ratio(float64(docs[0].Undone), alerts)
	m["recovery.redone_per_alert"] = ratio(float64(docs[0].Redone), alerts)
	m["recovery.history_at_alert_p50"] = pct(s.alertsH, 0.5)
	m["triage.alerts_per_cone"] = ratio(sum(vs, obs.MAlertsAnalyzed), sum(vs, obs.MTriageCones))
	m["triage.prefilter_hits"] = sum(vs, obs.MTriagePrefilterHits)
	m["triage.deduped"] = sum(vs, obs.MTriageDeduped)
	m["triage.alerts_dropped"] = float64(lost)

	// durable
	// The WAL runs without fsync (singleStack.boot), so its fsync histogram
	// stays empty; the write groups per run are the fsyncs it would issue.
	m["durable.groups_per_run"] = ratio(sum(vs, obs.MWalGroupEntries+"_count"), float64(len(p.sch.Runs)))
	m["durable.group_entries_mean"] = histMean(vs, obs.MWalGroupEntries)
	m["durable.bytes_per_entry"] = ratio(sum(vs, obs.MWalAppendedBytes), sum(vs, obs.MWlogAppends))
	m["durable.snapshots"] = sum(vs, obs.MWalSnapshots)

	// cluster
	for _, r := range []string{"submit", "commits", "tokens", "assess", "repair"} {
		m["cluster.internal."+r+".handler_ms_p50"] = pct(byName["cluster.internal."+r], 0.5)
		m["cluster.internal."+r+".handler_ms_p99"] = pct(byName["cluster.internal."+r], 0.99)
	}
	m["cluster.backend.submit_ms_p50"] = pct(byName["cluster.backend.submit"], 0.5)
	m["cluster.stamp_batch_mean"] = histMean(vs, obs.MClusterStampBatchSize)
	stamped := sum(vs, obs.MClusterRecordsStamped+`{kind="entry"}`)
	m["cluster.stale_ratio"] = ratio(sum(vs, obs.MClusterStaleSubmissions), stamped)
	followers := float64(len(vs) - 1)
	m["cluster.replication_bytes_per_record"] = ratio(sum(vs, obs.MClusterReplicationBytes+`{dir="out"}`),
		sum(vs, obs.MClusterRecordsStamped)*followers)
	m["cluster.replication_lag_max"] = float64(s.lagMax)
	// The token counter is a delta over the Poisson phase, so it is divided
	// by that phase's runs.
	clusterRuns := 0.0
	if p.w.cluster {
		clusterRuns = float64(len(p.sch.Runs))
	}
	m["cluster.tokens_per_run"] = ratio(sum(vs, obs.MClusterTokensSent), clusterRuns)
	m["cluster.proxied_per_request"] = ratio(sum(vs, obs.MClusterProxied), float64(len(byName["client.submit"])+len(byName["client.forge"])+len(byName["client.alert"])))

	// process
	m["process.gc_cpu_fraction"] = p.gcFraction
	m["process.gc_pause_ms_total"] = p.gcPauseMS

	self := selfTimes(spans)
	for _, layer := range []string{"loadgen", "client", "httpapi", "cluster", "shard", "recovery"} {
		m["selftime."+layer+"_ms"] = self[layer]
	}
	m["durable.replay_records"], m["durable.replay_ms"] = 0, 0
	return m
}

// mergeRestartLayers adds what the last restart reports: the WAL replay.
func mergeRestartLayers(m map[string]float64, st stack) map[string]float64 {
	if m == nil {
		return nil
	}
	if s, ok := st.(*singleStack); ok {
		n, d := s.svc.ReplayStats()
		m["durable.replay_records"] = float64(n)
		m["durable.replay_ms"] = float64(d) / 1e6
	}
	return m
}
