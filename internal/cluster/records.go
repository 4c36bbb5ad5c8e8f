package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"selfheal/internal/durable"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// Record kinds: the three deterministic state-machine transitions every
// replica applies in stream order.
const (
	// KindSpec registers a run (spec + first-writer-wins init seeding).
	KindSpec = "spec"
	// KindEntry commits one task instance (normal or forged) with the
	// stamper's authoritative read observations.
	KindEntry = "entry"
	// KindRepair runs the Theorem-1..4 repair for the accused instances at
	// this stream position, on every node.
	KindRepair = "repair"
)

// Record is one position of the replicated cluster stream. Seq is dense and
// 1-based; a replica at applied=N holds exactly the effects of records
// 1..N, which is what makes "applied" a complete replication cursor.
type Record struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"`
	// Origin is the node that submitted the record (observability only —
	// never part of the applied state).
	Origin string `json:"origin,omitempty"`

	// KindSpec fields.
	Run  string           `json:"run,omitempty"`
	Spec *wfjson.SpecJSON `json:"spec,omitempty"`
	Init map[string]int64 `json:"init,omitempty"`

	// KindEntry field: the committed task instance, LSN unassigned until a
	// replica's log appends it (the stream carries no LSN — every replica
	// assigns the same one to the same stream position).
	Entry *wlog.Entry `json:"entry,omitempty"`

	// KindRepair field.
	Bad []string `json:"bad,omitempty"`
}

// journal is the per-node binary record log: one CRC-framed binary record
// per applied stream position (the same [len][crc][payload] framing as the
// durable WAL, payloads per codec.go). Restart replays the journal, then
// -join pulls whatever the tail lost — so followers never fsync, and only
// the stamper (the single authority for stream positions) syncs, one fsync
// per appended batch. A mutex serializes writers so concurrently delivered
// records (push + pull fallback) cannot interleave bytes.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	sync bool
}

// journalPath is the binary journal file; legacyJournalPath is the JSONL
// journal of releases before the binary codec, which is no longer read.
func journalPath(dir, nodeID string) string       { return filepath.Join(dir, nodeID+".rjournal") }
func legacyJournalPath(dir, nodeID string) string { return filepath.Join(dir, nodeID+".journal") }

func openJournal(dir, nodeID string, sync bool) (*journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	path, legacy := journalPath(dir, nodeID), legacyJournalPath(dir, nodeID)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		// Refuse rather than start empty: a stamper that ignored its legacy
		// journal would restart the stream at seq 1 while its followers
		// already hold records.
		if _, err := os.Stat(legacy); err == nil {
			return nil, nil, fmt.Errorf("cluster: %s is a legacy JSONL journal, which this version does not read: move it aside and boot with -join to rebuild the journal from the peers", legacy)
		}
	}

	var recs []Record
	cut := 0
	if raw, err := os.ReadFile(path); err == nil {
		payloads, validLen := durable.SplitFrames(raw)
		cut = len(raw) - validLen // torn framing past the last valid frame
		off := 0
		for _, p := range payloads {
			rec, derr := decodeRecord(p)
			if derr != nil || rec.Seq != len(recs)+1 {
				// A frame that passes its CRC but decodes to garbage or a
				// seq gap ends the replayable prefix: truncate from here so
				// appends continue at a clean frame boundary (the catch-up
				// pull re-fetches everything past it).
				cut = len(raw) - off
				break
			}
			recs = append(recs, *rec)
			off += 8 + len(p) // frame header + payload
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: journal: %w", err)
	}
	if cut > 0 {
		fi, serr := f.Stat()
		if serr != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("cluster: journal: %w", serr)
		}
		if err := f.Truncate(fi.Size() - int64(cut)); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("cluster: journal truncate torn tail: %w", err)
		}
	}
	return &journal{f: f, sync: sync}, recs, nil
}

// appendBatch appends pre-framed record bytes with one write syscall and —
// on the stamper — one fsync, whatever the batch size. This is the journal
// half of group stamping: the fsync cost amortizes across every record the
// stamping loop drained.
func (j *journal) appendBatch(buf []byte) error {
	if j == nil || len(buf) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

func (j *journal) append(rec *Record) error {
	if j == nil {
		return nil
	}
	return j.appendBatch(encodeFramedRecord(nil, rec))
}

func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.f.Close()
}
