// Command e2ebench is the repository's end-to-end benchmark. For each
// workload it boots the real serving stack inside its own process (a
// shard.Service behind httpapi.ServerWithChaos, or three cluster.Node
// members behind InternalHandler and ClusterServer on loopback listeners),
// drives it over HTTP with one seeded open-loop generator, checks the
// outputs against the attack-free reference, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// command runs the workload twice, untraced and then traced, and prints the
// per-layer metrics, the tracing overhead among them. The traced run also
// writes its spans and a CPU profile under <dir>/out.
//
//	bash e2ebench/run.sh --workload attack --seed 7 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and their reasons.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: clean, attack or cluster")
	seed := flag.Int64("seed", 1, "seed of the generated schedule")
	seconds := flag.Float64("seconds", 20, "measured seconds of the Poisson phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "directory for state, spans and profiles")
	contractPath := flag.String("contract", "BENCHMARK.json", "the benchmark's contract, which lists the metrics to report")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 5 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 5")
		os.Exit(2)
	}
	c, err := loadContract(*contractPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *dir, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(w workload, seed int64, seconds float64, traced bool, dir string, c *contract) (*result, error) {
	sch, err := buildSchedule(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(dir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(work)

	if !traced {
		p := &pass{w: w, sch: sch, dir: work, full: true, seconds: seconds}
		if err := p.run(); err != nil {
			return nil, err
		}
		e2e := p.endToEnd()
		p.summary(os.Stderr, e2e, c.EndToEnd)
		return p.result(e2e, c.EndToEnd), nil
	}

	ref := &pass{w: w, sch: sch, dir: filepath.Join(work, "ref"), seconds: seconds}
	if err := ref.run(); err != nil {
		return nil, err
	}
	refE2E := ref.endToEnd()

	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.profile = prof
	p := &pass{w: w, sch: sch, dir: filepath.Join(work, "traced"), tr: tr, full: true, seconds: seconds}
	err = p.run()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if tr.profErr != nil {
		p.fail("cpu profile: %v", tr.profErr)
	}
	if err := writeSpans(base+".spans.jsonl", tr.snapshot()); err != nil {
		p.fail("spans: %v", err)
	}
	e2e := p.endToEnd()
	p.layers["tracing.overhead_run_p50_ms"] = e2e["run_p50_ms"] - refE2E["run_p50_ms"]
	// The tails as the untraced pass saw them.
	for name := range tails(nil, nil, nil) {
		p.layers["loadgen."+name] = refE2E[name]
	}
	p.layers["recovery.heal_p90_ms"] = pct(healMS(p.heals), 0.9)
	p.attempted += ref.attempted
	p.failures = append(p.failures, ref.failures...)
	p.summary(os.Stderr, e2e, c.EndToEnd)
	p.summary(os.Stderr, p.layers, c.PerLayer)
	p.healByHistory(os.Stderr)
	fmt.Fprintf(os.Stderr, "spans and CPU profile: %s.{spans.jsonl,cpu.pprof}\n", base)
	return p.result(p.layers, c.PerLayer), nil
}

// endToEnd computes the end-to-end metrics from the pass's records, and
// the tail figures (p90s, runs overlapping a heal) that a traced run
// reports under loadgen.
func (p *pass) endToEnd() map[string]float64 {
	m := map[string]float64{}
	need := func(name string, samples []float64) {
		v, ok := percentile(append([]float64(nil), samples...), 0.5)
		if !ok {
			p.fail("metric %s: %d samples, too few for a median", name, len(samples))
		}
		m[name] = v
	}
	var submit, runMS, inHeal []float64
	type interval struct{ from, to time.Time }
	var heals []interval
	for _, h := range p.heals {
		if h.ok {
			heals = append(heals, interval{h.due, h.done})
		}
	}
	for _, r := range p.runs {
		if !r.ok {
			continue
		}
		if r.op.Steady {
			submit = append(submit, msSince(r.due, r.acked))
			runMS = append(runMS, msSince(r.due, r.done))
		}
		for _, iv := range heals {
			if r.due.Before(iv.to) && iv.from.Before(r.done) {
				inHeal = append(inHeal, msSince(r.due, r.done))
				break
			}
		}
	}
	m["setup_s"] = median(p.setupS)
	need("submit_p50_ms", submit)
	need("run_p50_ms", runMS)
	need("heal_p50_ms", healMS(p.solo))
	for name, v := range tails(submit, runMS, inHeal) {
		m[name] = v
	}
	if p.full {
		total := 0.0
		for _, sec := range p.burstS {
			total += sec
		}
		m["burst_runs_per_s"] = ratio(float64(len(p.burstS)*p.w.burstRuns), total)
		m["restart_s"] = median(p.restartS)
	}
	m["heap_mb"] = p.heapMB
	return m
}

// tails are the tail figures of a pass: on a shared 2-vCPU host they
// moved by 30–70% between runs of the same code, too much for an
// end-to-end bound, so they are reported per layer. -1 marks too few
// samples.
func tails(submit, runMS, inHeal []float64) map[string]float64 {
	return map[string]float64{
		"submit_p90_ms":      pct(submit, 0.9),
		"run_p90_ms":         pct(runMS, 0.9),
		"run_in_heal_p50_ms": pct(inHeal, 0.5),
	}
}

// healByHistory prints the median heal time of each quarter of the
// attacks, ordered by the log length when their alert was admitted.
func (p *pass) healByHistory(f *os.File) {
	var hs []*healRec
	for _, h := range p.heals {
		if h.ok {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].history < hs[j].history })
	fmt.Fprintln(f, "heal time against history (log entries at the alert; cluster: stream records):")
	for q := 0; q < 4; q++ {
		part := hs[q*len(hs)/4 : (q+1)*len(hs)/4]
		if len(part) == 0 {
			continue
		}
		var ms []float64
		for _, h := range part {
			ms = append(ms, msSince(h.due, h.done))
		}
		fmt.Fprintf(f, "  history %6d..%-6d  heals %3d  median %8.2f ms\n", part[0].history, part[len(part)-1].history, len(part), median(ms))
	}
}

// healMS lists the heal times of the attacks that healed.
func healMS(heals []*healRec) []float64 {
	var out []float64
	for _, h := range heals {
		if h.ok {
			out = append(out, msSince(h.due, h.done))
		}
	}
	return out
}

// behind reports whether the generator fell behind its schedule: a run
// whose scheduled sends went out late by more than a poll interval at the
// 99th percentile measures the generator as much as the server.
func (p *pass) behind() bool {
	v, ok := percentile(p.g.lateness(), 0.99)
	return ok && v > float64(p.w.pollEvery)/1e6
}

func (p *pass) result(m map[string]float64, defs []metricDef) *result {
	res := &result{
		Correct:   len(p.failures) == 0,
		Attempted: p.attempted,
		Failed:    len(p.failures),
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			p.fail("metric %s: listed in BENCHMARK.json but not computed", d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	res.Correct, res.Failed = len(p.failures) == 0, len(p.failures)
	return res
}

// summary prints the metrics and the generator's validity for a reader.
func (p *pass) summary(f *os.File, m map[string]float64, defs []metricDef) {
	late := p.g.lateness()
	lp99, _ := percentile(late, 0.99)
	fmt.Fprintf(f, "workload %s: %d runs, %d attacks, history %d runs, %d generator connections, poll every %v, scheduled sends late p99 %.3f ms\n",
		p.w.name, len(p.sch.Runs), len(p.sch.Attacks), len(p.sch.History), p.g.dials.Load(), p.w.pollEvery, lp99)
	if p.behind() {
		fmt.Fprintln(f, "WARNING: the generator fell behind its schedule; these numbers measure the generator too")
	}
	for _, d := range defs {
		fmt.Fprintf(f, "  %-42s %14.4f %s\n", d.Name, m[d.Name], d.Unit)
	}
	fmt.Fprintf(f, "  failed_ratio %.4f (%d of %d)\n", ratio(float64(len(p.failures)), float64(p.attempted)), len(p.failures), p.attempted)
	if _, ok := m["run_p90_ms"]; ok {
		fmt.Fprintf(f, "  tails: submit p90 %.4f ms, run p90 %.4f ms, runs overlapping a heal p50 %.4f ms\n",
			m["submit_p90_ms"], m["run_p90_ms"], m["run_in_heal_p50_ms"])
	}
	var rates []float64
	for _, sec := range p.burstS {
		rates = append(rates, float64(p.w.burstRuns)/sec)
	}
	fmt.Fprintf(f, "  samples: set-up %.4f s, bursts %.0f runs/s, restarts %.4f s\n", p.setupS, rates, p.restartS)
	for i, msg := range p.sortedFailures() {
		if i == 20 {
			fmt.Fprintf(f, "  ... %d more failures\n", len(p.failures)-20)
			break
		}
		fmt.Fprintf(f, "  FAIL %s\n", msg)
	}
}
