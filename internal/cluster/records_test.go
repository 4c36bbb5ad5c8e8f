package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/wfjson"
	"selfheal/internal/wlog"
)

// sampleRecords is a short, valid stream prefix exercising every record
// kind and every codec field (reads with writer observations, choices,
// forged entries, init seeding, repairs).
func sampleRecords() []Record {
	spec := &wfjson.SpecJSON{
		Name:  "m",
		Start: "t0",
		Tasks: []wfjson.TaskJSON{
			{ID: "t0", Writes: []string{"a"}, Next: []string{"t1"}, Bias: 3},
			{ID: "t1", Reads: []string{"a"}, Writes: []string{"b"}, Bias: 7, Next: []string{"t2", "t3"},
				Choose: &wfjson.ChooseJSON{Key: "a", Threshold: 10, Low: "t2", High: "t3"}},
			{ID: "t2", Writes: []string{"c"}},
			{ID: "t3", Writes: []string{"c"}},
		},
	}
	return []Record{
		{Seq: 1, Kind: KindSpec, Origin: "n1", Run: "m", Spec: spec, Init: map[string]int64{"a": 5, "b": -2}},
		{Seq: 2, Kind: KindEntry, Origin: "n2", Entry: &wlog.Entry{
			Run: "m", Task: "t0", Visit: 1,
			Writes: map[data.Key]data.Value{"a": 8},
		}},
		{Seq: 3, Kind: KindEntry, Origin: "n1", Entry: &wlog.Entry{
			Run: "m", Task: "t1", Visit: 1,
			Reads:  map[data.Key]wlog.ReadObs{"a": {Value: 8, Writer: "m/t0#1", WriterPos: 1}},
			Writes: map[data.Key]data.Value{"b": 15},
			Chosen: "t2",
		}},
		{Seq: 4, Kind: KindEntry, Origin: "n3", Entry: &wlog.Entry{
			Run: "ghost", Task: "f", Visit: 1, Forged: true,
			Reads:  map[data.Key]wlog.ReadObs{"b": {Value: 15, Writer: "m/t1#1", WriterPos: 2}},
			Writes: map[data.Key]data.Value{"b": -999},
		}},
		{Seq: 5, Kind: KindRepair, Origin: "n1", Bad: []string{"ghost/f#1"}},
	}
}

// The binary codec must round-trip every record kind exactly (Spec compares
// through its JSON form: the document is embedded as JSON bytes).
func TestRecordCodecRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := encodeRecord(nil, &rec)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode record %d: %v", rec.Seq, err)
		}
		wantJSON, _ := json.Marshal(rec)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("record %d round-trip mismatch:\nwant %s\ngot  %s", rec.Seq, wantJSON, gotJSON)
		}
	}
}

// A wire body is all-or-nothing: concatenated frames decode back to the
// same records, and any flipped byte fails the whole body.
func TestWireRecordsRoundTripAndCorruption(t *testing.T) {
	recs := sampleRecords()
	body := encodeWireRecords(recs)
	got, err := decodeWireRecords(body)
	if err != nil {
		t.Fatalf("decode wire body: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("wire round-trip: got %d records, want %d", len(got), len(recs))
	}
	wantJSON, _ := json.Marshal(recs)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("wire round-trip mismatch")
	}
	for i := 0; i < len(body); i += 7 {
		mut := append([]byte(nil), body...)
		mut[i] ^= 0x40
		if _, err := decodeWireRecords(mut); err == nil {
			// A flip may hit a frame's length field such that the remaining
			// bytes still parse as valid frames with intact CRCs — but then
			// the records' seqs cannot stay 1..N dense. Accept only that.
			recs2, _ := decodeWireRecords(mut)
			dense := len(recs2) == len(recs)
			for j := range recs2 {
				if recs2[j].Seq != j+1 {
					dense = false
				}
			}
			if dense {
				t.Fatalf("byte flip at %d went completely undetected", i)
			}
		}
	}
}

// journalRecords writes recs through the journal and returns the file path.
func writeJournal(t *testing.T, dir string, recs []Record) string {
	t.Helper()
	j, replayed, err := openJournal(dir, "n1", true)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	var buf []byte
	for i := range recs {
		buf = encodeFramedRecord(buf, &recs[i])
	}
	if err := j.appendBatch(buf); err != nil {
		t.Fatalf("append batch: %v", err)
	}
	j.close()
	return journalPath(dir, "n1")
}

// Per-byte torn-tail matrix (mirroring internal/durable's): for every
// truncation length L of the binary journal, reopening must replay exactly
// the complete-frame prefix within L, truncate the file to that prefix,
// and leave a journal that reopens cleanly to the same state.
func TestJournalTornTailMatrix(t *testing.T) {
	recs := sampleRecords()
	base := t.TempDir()
	path := writeJournal(t, base, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	// Complete-frame boundaries: offsets after each fully framed record.
	boundaries := []int{0}
	off := 0
	for i := range recs {
		off += 8 + len(encodeRecord(nil, &recs[i]))
		boundaries = append(boundaries, off)
	}
	if off != len(raw) {
		t.Fatalf("frame accounting: computed %d bytes, file has %d", off, len(raw))
	}
	expectAt := func(L int) int {
		n := 0
		for i, b := range boundaries {
			if b <= L {
				n = i
			}
		}
		return n
	}
	for L := 0; L <= len(raw); L++ {
		dir := t.TempDir()
		torn := filepath.Join(dir, "n1.rjournal")
		if err := os.WriteFile(torn, raw[:L], 0o644); err != nil {
			t.Fatalf("write torn journal: %v", err)
		}
		j, replayed, err := openJournal(dir, "n1", true)
		if err != nil {
			t.Fatalf("L=%d: open: %v", L, err)
		}
		j.close()
		want := expectAt(L)
		if len(replayed) != want {
			t.Fatalf("L=%d: replayed %d records, want %d", L, len(replayed), want)
		}
		for i := range replayed {
			if replayed[i].Seq != i+1 {
				t.Fatalf("L=%d: replayed record %d has seq %d", L, i, replayed[i].Seq)
			}
		}
		// The torn tail must be physically gone: a second open replays the
		// same prefix from a clean frame boundary.
		after, err := os.ReadFile(torn)
		if err != nil {
			t.Fatalf("L=%d: reread: %v", L, err)
		}
		if len(after) != boundaries[want] {
			t.Fatalf("L=%d: file is %d bytes after truncation, want %d", L, len(after), boundaries[want])
		}
		j2, replayed2, err := openJournal(dir, "n1", true)
		if err != nil {
			t.Fatalf("L=%d: reopen: %v", L, err)
		}
		j2.close()
		if len(replayed2) != want {
			t.Fatalf("L=%d: reopen replayed %d records, want %d", L, len(replayed2), want)
		}
	}
}

// ---- replication codec benchmarks ----

func benchRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Seq: i + 1, Kind: KindEntry, Origin: "n2",
			Entry: &wlog.Entry{
				Run: "bench", Task: "t", Visit: i + 1,
				Reads:  map[data.Key]wlog.ReadObs{"k1": {Value: data.Value(i), Writer: "bench/t#1", WriterPos: float64(i)}},
				Writes: map[data.Key]data.Value{"k1": data.Value(i), "k2": data.Value(-i)},
			},
		})
	}
	return recs
}

// BenchmarkReplicationCodecBinary measures encode+decode of a 256-record
// replication body in the CRC-framed binary codec; ...JSON is the PR-8
// wire format it replaced. b.ReportMetric emits bytes per record.
func BenchmarkReplicationCodecBinary(b *testing.B) {
	recs := benchRecords(256)
	var bytesPerRec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := encodeWireRecords(recs)
		got, err := decodeWireRecords(body)
		if err != nil || len(got) != len(recs) {
			b.Fatalf("round trip: %d records, err %v", len(got), err)
		}
		bytesPerRec = float64(len(body)) / float64(len(recs))
	}
	b.ReportMetric(bytesPerRec, "bytes/record")
}

func BenchmarkReplicationCodecJSON(b *testing.B) {
	recs := benchRecords(256)
	var bytesPerRec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(commitsDoc{Records: recs})
		if err != nil {
			b.Fatal(err)
		}
		var doc commitsDoc
		if err := json.Unmarshal(body, &doc); err != nil || len(doc.Records) != len(recs) {
			b.Fatalf("round trip: %d records, err %v", len(doc.Records), err)
		}
		bytesPerRec = float64(len(body)) / float64(len(recs))
	}
	b.ReportMetric(bytesPerRec, "bytes/record")
}
