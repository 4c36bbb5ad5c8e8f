package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"selfheal/internal/cluster"
	"selfheal/internal/fuzz"
	"selfheal/internal/wf"
)

// workload fixes everything a run of one traffic mix depends on except the
// seed and the measured duration. The generator is open loop: runs and
// attacks are sent when due, whatever the server is doing.
type workload struct {
	name    string
	cluster bool // 3 nodes in one process over loopback, journaled
	durable bool // single node: -durable with the default -snapshot-every
	triage  bool // single node: -triage

	// history is the number of completed runs preloaded during set-up.
	history int
	// segments split the measured time. Between two segments the generator
	// waits until the server is idle and, on a durable node, checkpoints.
	segments []segment
	// sharedShare is the share of runs whose keys come from one small
	// shared pool instead of a private prefix (OCC conflicts in a cluster).
	sharedShare float64
	// pollEvery is the status poll interval of a run, probeEvery the gap
	// between heal probes.
	pollEvery, probeEvery time.Duration
	// soloHeals closed-loop attacks follow the Poisson phase, one at a
	// time on the otherwise idle server (heal_p50_ms).
	soloHeals int
	// bursts of burstRuns runs each are sent to set-up stacks of their
	// own, so a run sets up bursts+1 stacks; setup_s is their median.
	bursts, burstRuns int
	// restarts of the measured stack; restart_s is their median.
	restarts int
}

// segment is one stretch of Poisson traffic.
type segment struct {
	// share is the segment's part of the measured seconds.
	share float64
	// runRate and attackRate are Poisson arrival rates per second.
	runRate, attackRate float64
	// steady marks runs that feed submit_* and run_*.
	steady bool
}

// workloads lists every traffic mix the benchmark knows, by name.
var workloads = map[string]workload{
	// BENCHMARK.json leaves this workload out: its heal and burst figures
	// followed the shared host's speed too closely for a bound (README.md,
	// "Spread").
	//
	// Clean runs on an in-memory node: httpapi, the shard executor and
	// committer, engine/wlog/deps. submit_p50_ms and run_p50_ms come from
	// the attack-free second segment, so a recovery, durable or cluster
	// change should read "no change" there. Few runs arrive beside the
	// attacks of the first segment: heal time grows with the history, and
	// a history that grew fast during the segment made the heals follow
	// the host's speed.
	"clean": {
		name:    "clean",
		history: 300,
		segments: []segment{
			{share: 0.7, runRate: 6, attackRate: 4},
			{share: 0.3, runRate: 50, steady: true},
		},
		pollEvery: 500 * time.Microsecond, probeEvery: 500 * time.Microsecond,
		soloHeals: 40,
		bursts:    10, burstRuns: 600,
		restarts: 31,
	},
	// A durable node with triage under Poisson attacks: recovery, triage
	// and the WAL (record groups, snapshots, snapshot-bounded replay; the
	// WAL skips its fsyncs, see singleStack.boot). The history makes heals
	// pay for a realistic log, and it is large against what the measured
	// phase adds, so heal time stays level through the phase. At 20
	// seconds the phase and the closed-loop heals stay below the
	// 4096-entry snapshot interval: an automatic snapshot while an accused
	// run is still unrepaired would freeze that run's history and the
	// repair would be refused by design (docs/DURABILITY.md).
	"attack": {
		name:    "attack",
		durable: true, triage: true,
		history: 500,
		segments: []segment{
			{share: 1, runRate: 10, attackRate: 3, steady: true},
		},
		pollEvery: time.Millisecond, probeEvery: time.Millisecond,
		soloHeals: 120,
		bursts:    9, burstRuns: 1500,
		restarts: 7,
	},
	// Three nodes over loopback, without journals (see bootNode): stamper,
	// replication, codec, token handoff and distributed incidents; the
	// shard committer is bypassed. Attacks come in a first segment with few
	// runs beside them: an incident pauses the stamper's admission, with
	// attacks beside the full run rate incidents queue behind each other,
	// and heal time grows with the stream.
	"cluster": {
		name:    "cluster",
		cluster: true,
		history: 100,
		segments: []segment{
			{share: 0.5, runRate: 6, attackRate: 2.5},
			{share: 0.5, runRate: 30, steady: true},
		},
		sharedShare: 0.25,
		// A cluster heal probe fans out to every member, so it is sent
		// less often than a run poll.
		pollEvery: 500 * time.Microsecond, probeEvery: 2 * time.Millisecond,
		soloHeals: 36,
		bursts:    9, burstRuns: 600,
		restarts: 3,
	},
}

// runOp is one scheduled workflow run.
type runOp struct {
	// Seg is the segment and At the due time relative to its start.
	Seg int           `json:"seg"`
	At  time.Duration `json:"at"`
	ID  string        `json:"id"`
	// Shared marks a run whose keys come from the shared pool: its final
	// values depend on the commit order, so no reference value exists.
	Shared bool          `json:"shared,omitempty"`
	BP     *wf.Blueprint `json:"blueprint"`
	// Steady marks the runs that feed submit_* and run_*.
	Steady bool `json:"steady,omitempty"`
}

// forgeOp is one forged write set, alerted afterwards.
type forgeOp struct {
	// Run names the attacker's run; the forged instance is Run/x#1.
	Run    string           `json:"run"`
	Victim string           `json:"victim"`
	Reads  []string         `json:"reads,omitempty"`
	Writes map[string]int64 `json:"writes"`
	// Accuse adds the victim's t0 to the alert: a false accusation whose
	// undo and redo give the repair a real cone.
	Accuse bool `json:"accuse,omitempty"`
}

// attackOp forges one or more write sets and reports them in one POST: a
// single alert, or a batch of several when len(Forges) > 1.
type attackOp struct {
	Seg    int           `json:"seg"`
	At     time.Duration `json:"at"`
	ID     string        `json:"id"`
	Forges []forgeOp     `json:"forges"`
}

// schedule is everything one run sends, derived from the seed alone.
type schedule struct {
	// Durations of the segments.
	Segments []time.Duration `json:"segments"`
	History  []runOp         `json:"history"`
	Runs     []runOp         `json:"runs"`
	Attacks  []attackOp      `json:"attacks"`
	// Solo are the closed-loop attacks sent one at a time after the
	// Poisson phase; heal_p50_ms is theirs.
	Solo   []attackOp `json:"solo"`
	Bursts [][]runOp  `json:"bursts"`
}

// victimLead is how long before an attack its victim run was due: long
// enough for the run to have completed on any sane server.
const victimLead = 500 * time.Millisecond

// soloVictims is how many of the last runs the closed-loop attacks target.
const soloVictims = 40

// sharedPrefix names the pool of keys shared runs draw from.
const sharedPrefix = "s_"

// poissonTimes returns n arrival times in [from, to): a Poisson process
// conditioned on its count, so every run measures the same number of
// operations.
func poissonTimes(rng *rand.Rand, n int, from, to time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(rng.Int63n(int64(to-from)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func genRun(rng *rand.Rand, id string, shared bool) runOp {
	cfg := wf.DefaultGenConfig()
	cfg.Prefix = id + "_"
	if shared {
		cfg.Prefix = sharedPrefix
	}
	return runOp{ID: id, Shared: shared, BP: wf.GenerateBlueprint(id, cfg, rng)}
}

// buildSchedule derives the schedule of one run of w lasting seconds.
func buildSchedule(w workload, seed int64, seconds float64) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	sch := &schedule{}
	forges := 0
	for i := 0; i < w.history; i++ {
		sch.History = append(sch.History, genRun(rng, fmt.Sprintf("h%05d", i), false))
	}
	for si, seg := range w.segments {
		total := time.Duration(seg.share * seconds * float64(time.Second))
		sch.Segments = append(sch.Segments, total)
		first := len(sch.Runs)
		n := int(seg.runRate*total.Seconds() + 0.5)
		for _, at := range poissonTimes(rng, n, 0, total) {
			r := genRun(rng, fmt.Sprintf("r%05d", len(sch.Runs)), rng.Float64() < w.sharedShare)
			r.Seg, r.At, r.Steady = si, at, seg.steady
			sch.Runs = append(sch.Runs, r)
		}
		segRuns := sch.Runs[first:]
		// Attacks start once three private runs of the segment are due
		// victimLead before them, end early enough that every heal
		// finishes inside the segment, and attack runs of the same
		// segment.
		from := 2 * victimLead
		if at, ok := nthPrivateDue(segRuns, 3); ok && at+victimLead > from {
			from = at + victimLead
		}
		n = int(seg.attackRate*total.Seconds() + 0.5)
		if n > 0 && from >= total-total/20 {
			return nil, fmt.Errorf("segment %d: too short for its attacks", si)
		}
		for _, at := range poissonTimes(rng, n, from, total-total/20) {
			atk, err := genAttack(rng, fmt.Sprintf("a%04d", len(sch.Attacks)), len(sch.Attacks), segRuns, at, &forges)
			if err != nil {
				return nil, err
			}
			atk.Seg, atk.At = si, at
			sch.Attacks = append(sch.Attacks, atk)
		}
	}
	// Closed-loop attacks after the Poisson phase hit the last soloVictims
	// runs it sent, which lie above a durable node's last checkpoint.
	last := sch.Runs[max(0, len(sch.Runs)-soloVictims):]
	for k := 0; k < w.soloHeals; k++ {
		atk, err := genSoloAttack(rng, fmt.Sprintf("q%04d", k), k, last)
		if err != nil {
			return nil, err
		}
		sch.Solo = append(sch.Solo, atk)
	}
	for b := 0; b < w.bursts; b++ {
		var burst []runOp
		for i := 0; i < w.burstRuns; i++ {
			burst = append(burst, genRun(rng, fmt.Sprintf("b%d_%04d", b, i), false))
		}
		sch.Bursts = append(sch.Bursts, burst)
	}
	return sch, nil
}

// genAttack draws attack number k at time at, on victims among runs.
// Every fourth attack reports a batch, of 2 and of 3 alerts in turn, and
// every other forge falsely accuses its victim: fixed shares, so every
// seed heals the same mix of shapes. forges counts the forges drawn so
// far.
func genAttack(rng *rand.Rand, id string, k int, runs []runOp, at time.Duration, forges *int) (attackOp, error) {
	atk := attackOp{ID: id}
	nf := 1
	if k%4 == 3 {
		nf = 2 + (k/4)%2
	}
	leader := clusterIDs[k%len(clusterIDs)]
	for j := 0; j < nf; j++ {
		victim, ok := pickVictim(rng, runs, at)
		if !ok {
			return atk, fmt.Errorf("attack %s: no completed private run to attack", id)
		}
		accuse := *forges%2 == 0
		*forges++
		atk.Forges = append(atk.Forges, genForge(rng, leaderAligned(fmt.Sprintf("%s_%d", id, j), leader), victim, accuse))
	}
	return atk, nil
}

// genSoloAttack draws closed-loop attack number k: one forge whose alert
// also falsely accuses its victim, the shape whose repair undoes and redoes
// a real cone. The closed-loop heals keep to one shape: heal times ranged
// over 10x with the shape, and the median of a mix of them fell between
// two modes and moved with the seed's victims.
func genSoloAttack(rng *rand.Rand, id string, k int, runs []runOp) (attackOp, error) {
	victim, ok := pickVictim(rng, runs, time.Duration(math.MaxInt64))
	if !ok {
		return attackOp{}, fmt.Errorf("attack %s: no completed private run to attack", id)
	}
	leader := clusterIDs[k%len(clusterIDs)]
	return attackOp{ID: id, Forges: []forgeOp{genForge(rng, leaderAligned(id+"_0", leader), victim, true)}}, nil
}

// nthPrivateDue returns the due time of the n-th private run.
func nthPrivateDue(runs []runOp, n int) (time.Duration, bool) {
	for _, r := range runs {
		if !r.Shared {
			if n--; n == 0 {
				return r.At, true
			}
		}
	}
	return 0, false
}

// pickVictim draws a private-prefix run due at least victimLead before at.
func pickVictim(rng *rand.Rand, runs []runOp, at time.Duration) (runOp, bool) {
	n := sort.Search(len(runs), func(i int) bool { return runs[i].At > at-victimLead })
	for tries := 0; n > 0 && tries < 64; tries++ {
		if r := runs[rng.Intn(n)]; !r.Shared {
			return r, true
		}
	}
	return runOp{}, false
}

// leaderAligned names a forged run owned by leader in the benchmark's
// cluster. Alerts are led by the owner of the accused run, so all alerts of
// one attack share that leader, and the attack can be sent to it directly.
// A single node ignores ownership.
func leaderAligned(base, leader string) string {
	ring := cluster.NewRing(clusterIDs)
	name := base
	for k := 1; ring.OwnerOfRun(name) != leader; k++ {
		name = fmt.Sprintf("%s_%d", base, k)
	}
	return name
}

// genForge corrupts 1–2 of the victim's pool keys after observing 0–2 of
// them, the attack shape the API fuzzer uses; accuse adds a false
// accusation of the victim's t0 to the alert.
func genForge(rng *rand.Rand, run string, victim runOp, accuse bool) forgeOp {
	cfg := wf.DefaultGenConfig()
	cfg.Prefix = victim.ID + "_"
	f := forgeOp{Run: run, Victim: victim.ID, Writes: map[string]int64{}, Accuse: accuse}
	for n := rng.Intn(3); len(f.Reads) < n; {
		k := string(cfg.PoolKey(rng.Intn(cfg.Keys)))
		if !contains(f.Reads, k) {
			f.Reads = append(f.Reads, k)
		}
	}
	for n := 1 + rng.Intn(2); len(f.Writes) < n; {
		f.Writes[string(cfg.PoolKey(rng.Intn(cfg.Keys)))] = int64(1000 + rng.Intn(9000))
	}
	return f
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// reference is the attack-free final store of every private-prefix key:
// the serial execution of the private runs with no forges. Private runs
// have disjoint keys, so their serial order does not matter.
func reference(runs []runOp) (map[string]int64, error) {
	ref := &fuzz.Schedule{}
	for _, r := range runs {
		if !r.Shared {
			ref.Ops = append(ref.Ops, fuzz.Op{Kind: fuzz.OpSubmit, Run: r.ID, Blueprint: r.BP})
		}
	}
	return fuzz.BenignStore(ref)
}
