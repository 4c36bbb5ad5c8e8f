package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for name, w := range workloads {
		a, err := buildSchedule(w, 42, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := buildSchedule(w, 42, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: the same seed gave different schedules", name)
		}
		for i, r := range a.Runs {
			if !bytes.Equal(runBody(r), runBody(b.Runs[i])) {
				t.Fatalf("%s: run %s: the same seed gave different specs", name, r.ID)
			}
		}
		c, err := buildSchedule(w, 43, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jc, _ := json.Marshal(c)
		if bytes.Equal(ja, jc) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", name)
		}
	}
}

func TestAttacksTargetEarlierPrivateRunsOfTheirSegment(t *testing.T) {
	for name, w := range workloads {
		sch, err := buildSchedule(w, 7, 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs := map[string]runOp{}
		for _, r := range sch.Runs {
			runs[r.ID] = r
		}
		for _, a := range sch.Attacks {
			for _, f := range a.Forges {
				v, ok := runs[f.Victim]
				switch {
				case !ok:
					t.Fatalf("%s: attack %s names unknown victim %s", name, a.ID, f.Victim)
				case v.Shared:
					t.Errorf("%s: attack %s targets shared run %s", name, a.ID, v.ID)
				case v.Seg != a.Seg || v.At > a.At-victimLead:
					t.Errorf("%s: attack %s at %v targets run %s of segment %d at %v", name, a.ID, a.At, v.ID, v.Seg, v.At)
				}
			}
		}
		// Closed-loop attacks target private runs among the last sent,
		// every other forge of the Poisson phase accuses, and every
		// closed-loop attack is one accusing forge.
		forges, accused := 0, 0
		for _, a := range sch.Attacks {
			for _, f := range a.Forges {
				forges++
				if f.Accuse {
					accused++
				}
			}
		}
		if accused != (forges+1)/2 {
			t.Errorf("%s: %d of %d forges accuse", name, accused, forges)
		}
		if len(sch.Solo) != w.soloHeals {
			t.Errorf("%s: %d closed-loop attacks, want %d", name, len(sch.Solo), w.soloHeals)
		}
		for _, a := range sch.Solo {
			if len(a.Forges) != 1 || !a.Forges[0].Accuse {
				t.Errorf("%s: closed-loop attack %s is not one accusing forge", name, a.ID)
			}
			for _, f := range a.Forges {
				if v, ok := runs[f.Victim]; !ok || v.Shared || v.Seg != len(sch.Segments)-1 || v.ID < sch.Runs[len(sch.Runs)-soloVictims].ID {
					t.Errorf("%s: closed-loop attack %s targets %+v", name, a.ID, v)
				}
			}
		}
	}
}

// Every seed must yield a schedule at the contract's run length: with few
// runs beside the attacks, the first attacks of a segment once found no
// completed run to target.
func TestEverySeedHasVictims(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		w.bursts = 0 // drawn last, so they change no victim
		for seed := int64(1); seed <= 60; seed++ {
			if _, err := buildSchedule(w, seed, c.RunSeconds); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(samples(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// Against a handler that takes 20 ms, five sends due at the same instant
// on one connection queue behind each other: timed from the due time, the
// last one must show the four waits before it.
func TestLatencyCountsQueueingBehindASlowServer(t *testing.T) {
	const delay = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(delay)
	}))
	defer srv.Close()

	g := newLoadgen(1)
	due := time.Now().Add(10 * time.Millisecond)
	var mu sync.Mutex
	var lat []float64
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		g.push(due, true, func(w *worker) {
			defer wg.Done()
			r := w.do("GET", srv.URL, nil, nil)
			if !r.ok() {
				t.Errorf("request: %v", errOf(r))
			}
			mu.Lock()
			lat = append(lat, msSince(due, r.end))
			mu.Unlock()
		})
	}
	g.start()
	wg.Wait()
	g.halt()

	sort.Float64s(lat)
	ms := float64(delay) / float64(time.Millisecond)
	if lat[4] < 5*ms {
		t.Errorf("last latency %.1f ms, want at least %.1f ms of queueing and service", lat[4], 5*ms)
	}
	late := g.lateness()
	sort.Float64s(late)
	if len(late) != 5 || late[4] < 4*ms {
		t.Errorf("lateness %v, want the last send at least %.1f ms late", late, 4*ms)
	}
	if n := g.dials.Load(); n != 1 {
		t.Errorf("%d connections dialed, want 1", n)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen.run", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "client.submit", Start: 0, End: 30e6},
		{ID: 3, Parent: 2, Name: "httpapi.runs_post", Start: 5e6, End: 25e6},
		{ID: 4, Parent: 1, Name: "client.poll", Start: 20e6, End: 50e6},
	}
	got := selfTimes(spans)
	want := map[string]float64{"loadgen": 50, "client": 40, "httpapi": 20}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v ms, want %v", k, got[k], v)
		}
	}
}

// The command reads its metrics from BENCHMARK.json at the repository root
// and refuses a contract naming a workload it does not know.
func TestContractNamesTheWorkloads(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if c.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric %q, want setup_s", c.EndToEnd[0].Name)
	}
	bad := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bad, []byte(`{"workloads":[{"name":"clean"},{"name":"other"}],"end_to_end":[{"name":"setup_s"}],"per_layer":[{"name":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadContract(bad); err == nil {
		t.Error("a contract naming an unknown workload was accepted")
	}
}
