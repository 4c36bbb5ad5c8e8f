package durable

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"selfheal/internal/data"
	"selfheal/internal/deps"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

func testEntry() *wlog.Entry {
	return &wlog.Entry{
		LSN:    42,
		Run:    "orders",
		Task:   "charge",
		Visit:  3,
		Chosen: "retry",
		Reads: map[data.Key]wlog.ReadObs{
			"balance": {Value: -7, Writer: "orders:hold:1", WriterPos: 17},
			"limit":   {Value: 1000, Writer: "", WriterPos: data.InitPos},
		},
		Writes: map[data.Key]data.Value{"balance": -107, "charged": 1},
	}
}

func TestEntryRoundTrip(t *testing.T) {
	cases := []*wlog.Entry{
		testEntry(),
		{LSN: 1, Run: "r", Task: "t", Visit: 1,
			Reads: map[data.Key]wlog.ReadObs{}, Writes: map[data.Key]data.Value{}},
		{LSN: 9, Run: "r", Task: "evil", Visit: 2, Forged: true,
			Reads:  map[data.Key]wlog.ReadObs{"x": {Value: 5, Writer: "r:t:1", WriterPos: 3}},
			Writes: map[data.Key]data.Value{"x": 99}},
	}
	for _, e := range cases {
		p := EncodeEntry(nil, e)
		got, err := DecodeEntry(p)
		if err != nil {
			t.Fatalf("DecodeEntry(%s): %v", e.ID(), err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Errorf("entry %s round trip:\n want %+v\n got  %+v", e.ID(), e, got)
		}
	}
}

func TestEntryEncodingDeterministic(t *testing.T) {
	a := EncodeEntry(nil, testEntry())
	b := EncodeEntry(nil, testEntry())
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same entry differ")
	}
}

func TestEntryDecodeRejectsDamage(t *testing.T) {
	p := EncodeEntry(nil, testEntry())
	if _, err := DecodeEntry(p[:len(p)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := DecodeEntry(append(append([]byte(nil), p...), 0)); err == nil {
		t.Error("payload with trailing byte decoded without error")
	}
	if _, err := DecodeEntry([]byte{recAck}); err == nil {
		t.Error("non-entry kind accepted by DecodeEntry")
	}

	// Entry: LSN 1, run "", task "t", visit 1, no flags, then reads and
	// writes. Only the canonical encoding decodes, and no count may claim
	// more elements than there are bytes left.
	head := []byte{recEntry, 1, 0, 1, 't', 1}
	if _, err := DecodeEntry(append(head, 0, 0, 0)); err != nil {
		t.Fatalf("canonical entry rejected: %v", err)
	}
	for name, p := range map[string][]byte{
		"oversized read count": binary.AppendUvarint(append(head, 0), 1<<40),
		"non-minimal visit":    {recEntry, 1, 0, 1, 't', 0x81, 0x00, 0, 0, 0},
		"unknown flag":         append(head, 0x04, 0, 0),
		"empty choice":         append(head, entryChosen, 0, 0, 0),
		"writes out of order":  append(head, 0, 0, 2, 1, 'b', 2, 1, 'a', 2),
		"duplicate write":      append(head, 0, 0, 2, 1, 'a', 2, 1, 'a', 2),
	} {
		if _, err := DecodeEntry(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := decodeRecord(binary.AppendUvarint([]byte{recAlert, 1, 1}, 1<<40)); err == nil {
		t.Error("alert with an oversized accused count decoded without error")
	}
}

func TestControlRecordRoundTrips(t *testing.T) {
	init := map[data.Key]data.Value{"a": 1, "b": -2}
	spec := []byte(`{"name":"w","start":"t0","tasks":[{"id":"t0"}]}`)
	rec, err := decodeRecord(encodeSpec(nil, 7, "run-1", spec, init))
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	if rec.kind != recSpec || rec.stamp != 7 || rec.run != "run-1" ||
		!bytes.Equal(rec.spec, spec) || !reflect.DeepEqual(rec.init, init) {
		t.Errorf("spec round trip: %+v", rec)
	}

	bad := []wlog.InstanceID{"r:t:1", "r:u:2"}
	rec, err = decodeRecord(encodeAlert(nil, 9, 33, bad))
	if err != nil {
		t.Fatalf("alert: %v", err)
	}
	if rec.kind != recAlert || rec.stamp != 9 || rec.alertID != 33 || !reflect.DeepEqual(rec.bad, bad) {
		t.Errorf("alert round trip: %+v", rec)
	}

	rec, err = decodeRecord(encodeAck(nil, 11, []uint64{33, 34}))
	if err != nil {
		t.Fatalf("ack: %v", err)
	}
	if rec.kind != recAck || !reflect.DeepEqual(rec.ackIDs, []uint64{33, 34}) {
		t.Errorf("ack round trip: %+v", rec)
	}

	fronts := []RunFrontier{{Run: "r1", Cur: "t2"}, {Run: "r2", Cur: "end", Done: true}}
	chains := map[data.Key][]data.Version{
		"x": {{Pos: 1, Writer: "r1:t0:1", Value: 4}, {Pos: 5, Writer: "recovery", Value: 6, Recovery: true}},
		"y": nil, // deleted key
		"z": {{Pos: data.InitPos, Value: 1, Checkpoint: true}},
	}
	rec, err = decodeRecord(encodeAdopt(nil, 13, fronts, chains))
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if rec.kind != recAdopt || !reflect.DeepEqual(rec.fronts, fronts) || !reflect.DeepEqual(rec.chains, chains) {
		t.Errorf("adopt round trip:\n want %+v %+v\n got  %+v %+v", fronts, chains, rec.fronts, rec.chains)
	}
	if _, err := decodeRecord([]byte{99}); err == nil {
		t.Error("unknown record kind accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{
		Seq:   120,
		Epoch: 90,
		// Chains must be fixed points of CompactChain(·, Epoch): the
		// encoder persists the compacted form, and the round trip below
		// demands byte-for-byte identity.
		Chains: map[data.Key][]data.Version{
			"a": {{Pos: 90, Writer: "r:t:1", Value: 9, Checkpoint: true}, {Pos: 95, Writer: "r:t:2", Value: 12}},
			"b": {{Pos: 91, Writer: "recovery", Value: -1, Recovery: true}},
		},
		Graph: deps.Frontier{
			Epoch:      90,
			LastWriter: map[data.Key]wlog.InstanceID{"a": "r:t:1"},
			Pending:    map[data.Key][]wlog.InstanceID{"b": {"r:u:1", "r:v:2"}},
		},
		Specs: map[string]SpecState{
			"r": {JSON: []byte(`{"name":"r"}`), Init: map[data.Key]data.Value{"a": 3}},
		},
		Runs: map[string]RunState{
			"r": {Cur: "t2", Visits: map[wf.TaskID]int{"t0": 1, "t1": 2}, Status: RunActive},
			"q": {Cur: "end", Visits: map[wf.TaskID]int{}, Status: RunFailed, Err: "task boom failed"},
		},
		Alerts: map[uint64][]wlog.InstanceID{7: {"r:t:1"}, 9: {"r:u:1", "r:v:2"}},
	}
	body := encodeSnapshot(s)
	got, err := decodeSnapshot(body)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("snapshot round trip:\n want %+v\n got  %+v", s, got)
	}
	if !bytes.Equal(body, encodeSnapshot(s)) {
		t.Error("two encodings of the same snapshot differ")
	}

	// An incomplete snapshot (footer cut off) must be rejected, whether the
	// cut lands on a frame boundary or tears the last frame.
	frames, _ := splitFrames(body)
	lastLen := frameHeader + len(frames[len(frames)-1])
	if _, err := decodeSnapshot(body[:len(body)-lastLen]); err == nil {
		t.Error("snapshot without footer accepted")
	}
	if _, err := decodeSnapshot(body[:len(body)-1]); err == nil {
		t.Error("snapshot with torn footer accepted")
	}
}
