// Snapshot files: a point-in-time capture of the whole system state —
// store chains, registered specs, run frontiers, pending alerts, and the
// dependence-graph frontier — anchored to a WAL position (Seq) and an
// entry-LSN horizon (Epoch). Restore loads the latest snapshot and
// replays only the log records beyond Seq; segments fully covered by the
// snapshot are retired.
//
// A snapshot is written to a temporary file, fsynced, and renamed into
// place (plus a directory fsync), and its last record is a footer
// carrying the record count — a snapshot without a valid footer is
// incomplete and rejected, so a crash mid-snapshot-write can never
// corrupt recovery (the previous snapshot still governs).
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Run status strings carried by snapshots; the shard layer maps its
// internal run states onto these.
const (
	RunActive   = "active"
	RunDeferred = "deferred"
	RunDone     = "done"
	RunFailed   = "failed"
)

// SpecState is a registered run's durable registration: the wfjson
// document it was submitted with and the initial store values actually
// seeded for it.
type SpecState struct {
	JSON []byte
	Init map[data.Key]data.Value
}

// RunState is a run's resumable position.
type RunState struct {
	Cur    wf.TaskID
	Visits map[wf.TaskID]int
	Status string
	Err    string
}

// Snapshot is the full capture a checkpoint persists.
type Snapshot struct {
	// Seq is the WAL sequence number of the last record whose effects
	// are included; restore skips records at or below it.
	Seq uint64
	// Epoch is the highest entry LSN included; the restored log starts
	// at base = Epoch, and the store is compacted at this horizon.
	Epoch int
	// Chains is the store history at the capture point. The encoder
	// persists each chain compacted at Epoch (data.CompactChain) — the
	// state both the post-checkpoint live store and a restore converge to.
	Chains map[data.Key][]data.Version
	// Graph is the dependence graph's resumable frontier at Epoch.
	Graph deps.Frontier
	// Specs and Runs are the registered runs and their frontiers.
	Specs map[string]SpecState
	Runs  map[string]RunState
	// Alerts are the admitted-but-unacked alerts (ID → bad instances);
	// their WAL records fall at or below Seq, so they must ride the
	// snapshot or a restart would drop them.
	Alerts map[uint64][]wlog.InstanceID
}

// encodeSnapshot serializes a snapshot as a sequence of framed records
// ending in a footer. Deterministic: all maps are emitted in sorted order.
func encodeSnapshot(s *Snapshot) []byte {
	var out []byte
	records := 0
	emit := func(payload []byte) {
		out = appendFrame(out, payload)
		records++
	}

	var hdr []byte
	hdr = append(hdr, recSnapHeader)
	hdr = appendUvarint(hdr, snapFormat)
	hdr = appendUvarint(hdr, s.Seq)
	hdr = appendUvarint(hdr, uint64(s.Epoch))
	emit(hdr)

	// Chains are persisted pre-compacted at the snapshot epoch: the live
	// store is compacted there right after the checkpoint, and a restore
	// would re-apply the same horizon — so pre-horizon history is dead
	// weight that would only slow the boot path down. Keys whose chains
	// empty out are omitted (CompactBefore deletes them).
	for _, k := range sortedKeys(nil, s.Chains) {
		chain := data.CompactChain(s.Chains[k], float64(s.Epoch))
		if len(chain) == 0 {
			continue
		}
		var p []byte
		p = append(p, recSnapChain)
		p = AppendString(p, string(k))
		p = appendChain(p, chain)
		emit(p)
	}

	specRuns := make([]string, 0, len(s.Specs))
	for run := range s.Specs {
		specRuns = append(specRuns, run)
	}
	sort.Strings(specRuns)
	for _, run := range specRuns {
		sp := s.Specs[run]
		var p []byte
		p = append(p, recSnapSpec)
		p = AppendString(p, run)
		p = AppendBytes(p, sp.JSON)
		p = appendInit(p, sp.Init)
		emit(p)
	}

	runIDs := make([]string, 0, len(s.Runs))
	for run := range s.Runs {
		runIDs = append(runIDs, run)
	}
	sort.Strings(runIDs)
	for _, run := range runIDs {
		rs := s.Runs[run]
		var p []byte
		p = append(p, recSnapRun)
		p = AppendString(p, run)
		p = AppendString(p, rs.Status)
		p = AppendString(p, rs.Err)
		p = AppendString(p, string(rs.Cur))
		tasks := make([]string, 0, len(rs.Visits))
		for t := range rs.Visits {
			tasks = append(tasks, string(t))
		}
		sort.Strings(tasks)
		p = appendUvarint(p, uint64(len(tasks)))
		for _, t := range tasks {
			p = AppendString(p, t)
			p = appendUvarint(p, uint64(rs.Visits[wf.TaskID(t)]))
		}
		emit(p)
	}

	alertIDs := make([]uint64, 0, len(s.Alerts))
	for id := range s.Alerts {
		alertIDs = append(alertIDs, id)
	}
	sort.Slice(alertIDs, func(i, j int) bool { return alertIDs[i] < alertIDs[j] })
	for _, id := range alertIDs {
		bad := s.Alerts[id]
		var p []byte
		p = append(p, recSnapAlert)
		p = appendUvarint(p, id)
		p = appendUvarint(p, uint64(len(bad)))
		for _, b := range bad {
			p = AppendString(p, string(b))
		}
		emit(p)
	}

	var g []byte
	g = append(g, recSnapGraph)
	g = appendUvarint(g, uint64(s.Graph.Epoch))
	g = appendUvarint(g, uint64(len(s.Graph.LastWriter)))
	for _, k := range sortedKeys(nil, s.Graph.LastWriter) {
		g = AppendString(g, string(k))
		g = AppendString(g, string(s.Graph.LastWriter[k]))
	}
	g = appendUvarint(g, uint64(len(s.Graph.Pending)))
	for _, k := range sortedKeys(nil, s.Graph.Pending) {
		g = AppendString(g, string(k))
		readers := s.Graph.Pending[k]
		g = appendUvarint(g, uint64(len(readers)))
		for _, r := range readers {
			g = AppendString(g, string(r))
		}
	}
	emit(g)

	var foot []byte
	foot = append(foot, recSnapFooter)
	foot = appendUvarint(foot, uint64(records))
	out = appendFrame(out, foot)
	return out
}

// decodeSnapshot parses a snapshot file body, rejecting incomplete files
// (missing or mismatched footer).
func decodeSnapshot(b []byte) (*Snapshot, error) {
	payloads, validLen := splitFrames(b)
	if validLen != len(b) {
		return nil, fmt.Errorf("durable: snapshot corrupt at byte %d", validLen)
	}
	if len(payloads) < 2 {
		return nil, fmt.Errorf("durable: snapshot has %d records, need header and footer", len(payloads))
	}
	s := &Snapshot{
		Chains: make(map[data.Key][]data.Version),
		Specs:  make(map[string]SpecState),
		Runs:   make(map[string]RunState),
		Alerts: make(map[uint64][]wlog.InstanceID),
	}
	sawFooter := false
	for i, p := range payloads {
		r := NewReader(p)
		kind := r.Byte()
		if sawFooter {
			return nil, fmt.Errorf("durable: snapshot record after footer")
		}
		switch kind {
		case recSnapHeader:
			if i != 0 {
				return nil, fmt.Errorf("durable: snapshot header at record %d", i)
			}
			if f := r.Uvarint(); f != snapFormat {
				return nil, fmt.Errorf("durable: snapshot format %d unsupported", f)
			}
			s.Seq = r.Uvarint()
			s.Epoch = int(r.Uvarint())
		case recSnapChain:
			k := data.Key(r.Str())
			s.Chains[k] = r.chain()
		case recSnapSpec:
			run := r.Str()
			s.Specs[run] = SpecState{JSON: r.Bytes(), Init: r.initMap()}
		case recSnapRun:
			run := r.Str()
			rs := RunState{Status: r.Str(), Err: r.Str(), Cur: wf.TaskID(r.Str())}
			n := r.Count()
			rs.Visits = make(map[wf.TaskID]int, n)
			for j := 0; j < n && r.err == nil; j++ {
				t := wf.TaskID(r.Str())
				rs.Visits[t] = int(r.Uvarint())
			}
			s.Runs[run] = rs
		case recSnapAlert:
			id := r.Uvarint()
			n := r.Count()
			bad := make([]wlog.InstanceID, 0, n)
			for j := 0; j < n && r.err == nil; j++ {
				bad = append(bad, wlog.InstanceID(r.Str()))
			}
			s.Alerts[id] = bad
		case recSnapGraph:
			s.Graph.Epoch = int(r.Uvarint())
			nl := r.Count()
			s.Graph.LastWriter = make(map[data.Key]wlog.InstanceID, nl)
			for j := 0; j < nl && r.err == nil; j++ {
				k := data.Key(r.Str())
				s.Graph.LastWriter[k] = wlog.InstanceID(r.Str())
			}
			np := r.Count()
			s.Graph.Pending = make(map[data.Key][]wlog.InstanceID, np)
			for j := 0; j < np && r.err == nil; j++ {
				k := data.Key(r.Str())
				nr := r.Count()
				readers := make([]wlog.InstanceID, 0, nr)
				for x := 0; x < nr && r.err == nil; x++ {
					readers = append(readers, wlog.InstanceID(r.Str()))
				}
				s.Graph.Pending[k] = readers
			}
		case recSnapFooter:
			if n := r.Uvarint(); n != uint64(i) {
				return nil, fmt.Errorf("durable: snapshot footer counts %d records, file has %d", n, i)
			}
			sawFooter = true
		default:
			return nil, fmt.Errorf("durable: unknown snapshot record kind %d", kind)
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
	}
	if !sawFooter {
		return nil, fmt.Errorf("durable: snapshot missing footer (incomplete write)")
	}
	return s, nil
}

// WriteSnapshot durably persists a snapshot (temp file + fsync + rename +
// directory fsync), then retires every snapshot before it and every
// segment fully covered by it. On success, restores start from this
// snapshot; on any failure the previous snapshot still governs.
func (w *WAL) WriteSnapshot(s *Snapshot) error {
	body := encodeSnapshot(s)
	final := filepath.Join(w.dir, snapName(s.Seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !w.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if !w.opts.NoSync {
		if err := syncDir(w.dir); err != nil {
			return err
		}
	}
	w.o.snapshots.Inc()

	w.mu.Lock()
	w.snapSeq = s.Seq
	w.snapEpoch = s.Epoch
	w.mu.Unlock()

	w.retire(s.Seq)
	return nil
}

// retire deletes snapshots older than seq and segments whose records all
// fall at or below seq (determined by the next segment's first sequence
// number; the active segment is always kept).
func (w *WAL) retire(seq uint64) {
	if nums, err := listNumbered(w.dir, snapPrefix, snapSuffix); err == nil {
		for _, n := range nums {
			if n < seq {
				os.Remove(filepath.Join(w.dir, snapName(n)))
			}
		}
	}
	w.mu.Lock()
	var drop []uint64
	for len(w.segs) > 1 && w.segs[1] <= seq+1 {
		drop = append(drop, w.segs[0])
		w.segs = w.segs[1:]
	}
	live := len(w.segs)
	w.mu.Unlock()
	for _, n := range drop {
		os.Remove(filepath.Join(w.dir, segName(n)))
	}
	w.o.segments.Set(int64(live))
}

// loadLatestSnapshot returns the newest complete snapshot in dir, or nil
// when none exists.
func loadLatestSnapshot(dir string) (*Snapshot, error) {
	nums, err := listNumbered(dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	if len(nums) == 0 {
		return nil, nil
	}
	latest := nums[len(nums)-1]
	b, err := os.ReadFile(filepath.Join(dir, snapName(latest)))
	if err != nil {
		return nil, err
	}
	s, err := decodeSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", snapName(latest), err)
	}
	if s.Seq != latest {
		return nil, fmt.Errorf("durable: snapshot %s claims seq %d", snapName(latest), s.Seq)
	}
	return s, nil
}
