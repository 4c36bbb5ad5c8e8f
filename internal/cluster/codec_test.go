package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfheal/internal/durable"
	"selfheal/internal/wlog"
)

// The fixtures under testdata/ hold the bytes an earlier release wrote for
// sampleRecords(): the framed binary stream, the JSON commits document and
// a batched submit body. Journals on disk and peers of that release speak
// exactly these bytes, so the current code must produce and accept them;
// never regenerate the fixtures from the current code.
func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	return b
}

func sampleEntries() []*wlog.Entry {
	var out []*wlog.Entry
	for _, rec := range sampleRecords() {
		if rec.Entry != nil {
			out = append(out, rec.Entry)
		}
	}
	return out
}

func TestGoldenRecordBytes(t *testing.T) {
	recs := sampleRecords()
	bin, commits, submit := readGolden(t, "records.bin"), readGolden(t, "commits.json"), readGolden(t, "submit.json")

	// Binary frames: encode is byte-identical, decode re-encodes to it.
	if got := encodeWireRecords(recs); !bytes.Equal(got, bin) {
		t.Fatalf("binary stream differs from golden:\ngot  %x\nwant %x", got, bin)
	}
	decoded, err := decodeWireRecords(bin)
	if err != nil {
		t.Fatalf("decode golden stream: %v", err)
	}
	if got := encodeWireRecords(decoded); !bytes.Equal(got, bin) {
		t.Fatalf("decoded golden stream re-encodes differently")
	}
	if got, _ := json.Marshal(commitsDoc{Records: decoded}); !bytes.Equal(got, commits) {
		t.Fatalf("decoded golden stream differs from golden JSON:\ngot  %s\nwant %s", got, commits)
	}

	// JSON commits document (GET /internal/v1/commits).
	if got, _ := json.Marshal(commitsDoc{Records: recs}); !bytes.Equal(got, commits) {
		t.Fatalf("commits JSON differs from golden:\ngot  %s\nwant %s", got, commits)
	}
	var doc commitsDoc
	if err := json.Unmarshal(commits, &doc); err != nil {
		t.Fatalf("decode golden commits JSON: %v", err)
	}
	if got := encodeWireRecords(doc.Records); !bytes.Equal(got, bin) {
		t.Fatalf("golden commits JSON decodes to records that encode differently")
	}

	// Batched submit body (POST /internal/v1/submit).
	if got, _ := json.Marshal(submitReq{Origin: "n2", Entries: sampleEntries()}); !bytes.Equal(got, submit) {
		t.Fatalf("submit JSON differs from golden:\ngot  %s\nwant %s", got, submit)
	}
	var req submitReq
	if err := json.Unmarshal(submit, &req); err != nil {
		t.Fatalf("decode golden submit JSON: %v", err)
	}
	if got, _ := json.Marshal(req); !bytes.Equal(got, submit) {
		t.Fatalf("golden submit JSON does not round-trip:\ngot  %s\nwant %s", got, submit)
	}
}

// Booting over a journal directory: a binary journal written by the
// earlier release replays in full, and a legacy JSONL journal with no
// binary journal beside it is refused instead of silently ignored.
func TestJournalBoot(t *testing.T) {
	t.Run("golden rjournal replays", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir, "n1"), readGolden(t, "records.bin"), 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{NodeID: "n1", Dir: dir})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		defer n.Stop()
		if got := n.rep.Applied(); got != len(sampleRecords()) {
			t.Fatalf("replayed %d records, want %d", got, len(sampleRecords()))
		}
		if got := encodeWireRecords(n.rep.RecordsAfter(0, 0)); !bytes.Equal(got, readGolden(t, "records.bin")) {
			t.Fatalf("replayed history re-encodes differently")
		}
	})
	t.Run("legacy journal refused", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(legacyJournalPath(dir, "n1"), []byte(`{"seq":1,"kind":"repair"}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := New(Config{NodeID: "n1", Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "-join") {
			t.Fatalf("boot beside a legacy journal: err %v, want a refusal naming -join", err)
		}
		if _, serr := os.Stat(journalPath(dir, "n1")); serr == nil {
			t.Fatalf("refused boot created a binary journal")
		}
	})
}

// crashPayload is a repair record claiming 2^40 accused instances in a
// 9-byte payload; framed, it is the 17-byte body that once made a node's
// decoder size an allocation from the count and die out of memory.
func crashPayload() []byte {
	p := []byte{recRepair}
	p = binary.AppendUvarint(p, 1) // seq
	p = binary.AppendUvarint(p, 0) // empty origin
	return binary.AppendUvarint(p, 1<<40)
}

// FuzzDecodeRecord checks the record decoder on arbitrary payloads: it
// never panics, and whatever it accepts re-encodes to the identical bytes
// (the codec is canonical, so replicas that agree on records agree on
// bytes). The seeds are the golden frames and the oversized-count payload.
func FuzzDecodeRecord(f *testing.F) {
	payloads, _ := durable.SplitFrames(readGolden(f, "records.bin"))
	for _, p := range payloads {
		f.Add(p)
	}
	f.Add(crashPayload())
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeRecord(p)
		if err != nil {
			return
		}
		if got := encodeRecord(nil, rec); !bytes.Equal(got, p) {
			t.Fatalf("decoded payload re-encodes differently:\nin  %x\nout %x", p, got)
		}
	})
}
