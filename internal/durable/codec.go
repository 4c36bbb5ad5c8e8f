// Binary record codec for the durable WAL: compact, length-delimited field
// encodings (uvarint integers, length-prefixed strings, raw float64 bits)
// replacing the per-entry JSON of internal/wlogio on the hot append path.
// Every record payload starts with a kind byte; the framing layer
// (segment.go) wraps payloads in a [length][CRC32] envelope.
//
// Encoding is deterministic: map-shaped fields (reads, writes, inits,
// chains) are emitted in sorted key order, so identical states produce
// identical bytes — the property the crash-equivalence tests rely on.
package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"selfheal/internal/data"
	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// Record kinds. Log-stream kinds (entry/spec/alert/ack/adopt) appear in
// segment files; snap* kinds appear only inside snapshot files.
const (
	recEntry byte = iota + 1
	recSpec
	recAlert
	recAck
	recAdopt
	recSnapHeader
	recSnapChain
	recSnapSpec
	recSnapRun
	recSnapAlert
	recSnapGraph
	recSnapFooter
)

// snapFormat is the snapshot/segment format version stamped in headers.
const snapFormat = 1

// --- primitive writers -------------------------------------------------

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b as a uvarint length followed by its bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// --- primitive reader --------------------------------------------------

// Reader decodes one record payload written with the writers above; the
// first decoding error sticks and every later read returns zero values,
// so decode paths check the error once, at Finish. It accepts only the
// canonical bytes the writers produce (minimal varints, map keys in
// ascending order), so a payload that decodes re-encodes to itself. Other
// record logs (the cluster journal and its replication bodies) decode
// with it too.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over payload p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("durable: truncated or non-minimal uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("durable: truncated or non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads an element count. Every element takes at least one payload
// byte, so a count above the bytes left is corrupt: it fails here instead
// of sizing an allocation from untrusted input.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail("durable: count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// Key reads the i-th key of a map written in ascending key order and fails
// unless it sorts strictly after prev, the key before it.
func (r *Reader) Key(i int, prev string) string {
	k := r.Str()
	if i > 0 && k <= prev {
		r.fail("durable: map key %q out of order after %q", k, prev)
	}
	return k
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("durable: truncated string (%d of %d bytes)", len(r.b), n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Bytes reads a copy of a byte string written by AppendBytes.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("durable: truncated bytes (%d of %d)", len(r.b), n)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("durable: truncated byte")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *Reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("durable: truncated float64")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Finish returns the sticky error, or an error if payload bytes are left.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("durable: %d trailing payload bytes", len(r.b))
	}
	return nil
}

// --- log entries --------------------------------------------------------

const (
	entryForged byte = 1 << iota
	entryChosen
)

// EncodeEntry appends the binary encoding of one committed log entry
// (kind byte and LSN, then AppendEntryBody) to dst. Exported so the wlogio
// benchmarks can compare the JSON and binary codecs head to head.
func EncodeEntry(dst []byte, e *wlog.Entry) []byte {
	dst = append(dst, recEntry)
	dst = appendUvarint(dst, uint64(e.LSN))
	return AppendEntryBody(dst, e)
}

// AppendEntryBody appends the body of an entry record: the task instance,
// its flags, and its reads and writes in sorted key order — everything but
// the kind byte and the LSN. The cluster record stream, which carries no
// LSN, encodes its entries with it.
func AppendEntryBody(dst []byte, e *wlog.Entry) []byte {
	dst = AppendString(dst, e.Run)
	dst = AppendString(dst, string(e.Task))
	dst = appendUvarint(dst, uint64(e.Visit))
	var flags byte
	if e.Forged {
		flags |= entryForged
	}
	if e.Chosen != "" {
		flags |= entryChosen
	}
	dst = append(dst, flags)
	if e.Chosen != "" {
		dst = AppendString(dst, string(e.Chosen))
	}
	var kbuf [8]data.Key
	dst = appendUvarint(dst, uint64(len(e.Reads)))
	for _, k := range sortedKeys(kbuf[:0], e.Reads) {
		obs := e.Reads[k]
		dst = AppendString(dst, string(k))
		dst = appendVarint(dst, int64(obs.Value))
		dst = AppendString(dst, obs.Writer)
		dst = appendF64(dst, obs.WriterPos)
	}
	dst = appendUvarint(dst, uint64(len(e.Writes)))
	for _, k := range sortedKeys(kbuf[:0], e.Writes) {
		dst = AppendString(dst, string(k))
		dst = appendVarint(dst, int64(e.Writes[k]))
	}
	return dst
}

// DecodeEntry decodes an entry payload produced by EncodeEntry (kind byte
// included).
func DecodeEntry(p []byte) (*wlog.Entry, error) {
	r := NewReader(p)
	if k := r.Byte(); k != recEntry {
		return nil, fmt.Errorf("durable: record kind %d is not an entry", k)
	}
	lsn := int(r.Uvarint())
	e := r.EntryBody()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	e.LSN = lsn
	return e, nil
}

// EntryBody reads an entry body written by AppendEntryBody (LSN left 0).
func (r *Reader) EntryBody() *wlog.Entry {
	e := &wlog.Entry{
		Run:   r.Str(),
		Task:  wf.TaskID(r.Str()),
		Visit: int(r.Uvarint()),
	}
	flags := r.Byte()
	if flags&^(entryForged|entryChosen) != 0 {
		r.fail("durable: unknown entry flags %#x", flags)
	}
	e.Forged = flags&entryForged != 0
	if flags&entryChosen != 0 {
		if e.Chosen = wf.TaskID(r.Str()); e.Chosen == "" {
			r.fail("durable: entry flags an empty choice")
		}
	}
	nReads := r.Count()
	e.Reads = make(map[data.Key]wlog.ReadObs, nReads)
	var k string
	for i := 0; i < nReads && r.err == nil; i++ {
		k = r.Key(i, k)
		e.Reads[data.Key(k)] = wlog.ReadObs{
			Value:     data.Value(r.Varint()),
			Writer:    r.Str(),
			WriterPos: r.f64(),
		}
	}
	nWrites := r.Count()
	e.Writes = make(map[data.Key]data.Value, nWrites)
	for i := 0; i < nWrites && r.err == nil; i++ {
		k = r.Key(i, k)
		e.Writes[data.Key(k)] = data.Value(r.Varint())
	}
	return e
}

// --- store versions and chains -----------------------------------------

const (
	verRecovery byte = 1 << iota
	verCheckpoint
)

func appendVersion(dst []byte, v data.Version) []byte {
	dst = appendF64(dst, v.Pos)
	dst = AppendString(dst, v.Writer)
	dst = appendVarint(dst, int64(v.Value))
	var flags byte
	if v.Recovery {
		flags |= verRecovery
	}
	if v.Checkpoint {
		flags |= verCheckpoint
	}
	return append(dst, flags)
}

func (r *Reader) version() data.Version {
	v := data.Version{
		Pos:    r.f64(),
		Writer: r.Str(),
		Value:  data.Value(r.Varint()),
	}
	flags := r.Byte()
	v.Recovery = flags&verRecovery != 0
	v.Checkpoint = flags&verCheckpoint != 0
	return v
}

func appendChain(dst []byte, chain []data.Version) []byte {
	dst = appendUvarint(dst, uint64(len(chain)))
	for _, v := range chain {
		dst = appendVersion(dst, v)
	}
	return dst
}

func (r *Reader) chain() []data.Version {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]data.Version, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.version())
	}
	return out
}

// sortedKeys appends the keys of m to dst in ascending order. The entry
// encoder passes a stack buffer, so small maps sort without allocating.
func sortedKeys[V any](dst []data.Key, m map[data.Key]V) []data.Key {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// appendInit encodes an initial-values map in sorted key order.
func appendInit(dst []byte, init map[data.Key]data.Value) []byte {
	dst = appendUvarint(dst, uint64(len(init)))
	for _, k := range sortedKeys(nil, init) {
		dst = AppendString(dst, string(k))
		dst = appendVarint(dst, int64(init[k]))
	}
	return dst
}

func (r *Reader) initMap() map[data.Key]data.Value {
	n := r.Count()
	out := make(map[data.Key]data.Value, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := data.Key(r.Str())
		out[k] = data.Value(r.Varint())
	}
	return out
}

// --- control records ----------------------------------------------------

// encodeSpec builds a spec record: a run registration carrying the wfjson
// spec document and its initial store values, stamped with the highest
// entry LSN already enqueued (the record's position in the commit order).
func encodeSpec(dst []byte, stamp int, run string, specJSON []byte, init map[data.Key]data.Value) []byte {
	dst = append(dst, recSpec)
	dst = appendUvarint(dst, uint64(stamp))
	dst = AppendString(dst, run)
	dst = AppendBytes(dst, specJSON)
	return appendInit(dst, init)
}

func encodeAlert(dst []byte, stamp int, id uint64, bad []wlog.InstanceID) []byte {
	dst = append(dst, recAlert)
	dst = appendUvarint(dst, uint64(stamp))
	dst = appendUvarint(dst, id)
	dst = appendUvarint(dst, uint64(len(bad)))
	for _, b := range bad {
		dst = AppendString(dst, string(b))
	}
	return dst
}

func encodeAck(dst []byte, stamp int, ids []uint64) []byte {
	dst = append(dst, recAck)
	dst = appendUvarint(dst, uint64(stamp))
	dst = appendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendUvarint(dst, id)
	}
	return dst
}

// RunFrontier is a run's post-repair position, carried by adopt records:
// recovery rewrote the run's path and moved its frontier to Cur (or
// completed it).
type RunFrontier struct {
	Run  string
	Cur  wf.TaskID
	Done bool
}

// encodeAdopt builds an adopt record: the full replacement chains of the
// damaged keys a repair installed (empty chain = key deleted) plus the
// resynced run frontiers. Replaying it reproduces the repair's effect on
// the store without re-running the repair.
func encodeAdopt(dst []byte, stamp int, fronts []RunFrontier, chains map[data.Key][]data.Version) []byte {
	dst = append(dst, recAdopt)
	dst = appendUvarint(dst, uint64(stamp))
	dst = appendUvarint(dst, uint64(len(fronts)))
	for _, f := range fronts {
		dst = AppendString(dst, f.Run)
		dst = AppendString(dst, string(f.Cur))
		var done byte
		if f.Done {
			done = 1
		}
		dst = append(dst, done)
	}
	dst = appendUvarint(dst, uint64(len(chains)))
	for _, k := range sortedKeys(nil, chains) {
		dst = AppendString(dst, string(k))
		dst = appendChain(dst, chains[k])
	}
	return dst
}

// record is one decoded log-stream record.
type record struct {
	kind  byte
	stamp int // highest entry LSN enqueued before this record
	entry *wlog.Entry

	run  string // spec
	spec []byte
	init map[data.Key]data.Value

	alertID uint64 // alert
	bad     []wlog.InstanceID
	ackIDs  []uint64 // ack

	fronts []RunFrontier // adopt
	chains map[data.Key][]data.Version
}

// decodeRecord decodes one log-stream record payload.
func decodeRecord(p []byte) (*record, error) {
	r := NewReader(p)
	rec := &record{kind: r.Byte()}
	switch rec.kind {
	case recEntry:
		rec.stamp = int(r.Uvarint())
		rec.entry = r.EntryBody()
		rec.entry.LSN = rec.stamp
	case recSpec:
		rec.stamp = int(r.Uvarint())
		rec.run = r.Str()
		rec.spec = r.Bytes()
		rec.init = r.initMap()
	case recAlert:
		rec.stamp = int(r.Uvarint())
		rec.alertID = r.Uvarint()
		n := r.Count()
		rec.bad = make([]wlog.InstanceID, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			rec.bad = append(rec.bad, wlog.InstanceID(r.Str()))
		}
	case recAck:
		rec.stamp = int(r.Uvarint())
		n := r.Count()
		rec.ackIDs = make([]uint64, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			rec.ackIDs = append(rec.ackIDs, r.Uvarint())
		}
	case recAdopt:
		rec.stamp = int(r.Uvarint())
		nf := r.Count()
		rec.fronts = make([]RunFrontier, 0, nf)
		for i := 0; i < nf && r.err == nil; i++ {
			f := RunFrontier{Run: r.Str(), Cur: wf.TaskID(r.Str())}
			f.Done = r.Byte() != 0
			rec.fronts = append(rec.fronts, f)
		}
		nc := r.Count()
		rec.chains = make(map[data.Key][]data.Version, nc)
		for i := 0; i < nc && r.err == nil; i++ {
			k := data.Key(r.Str())
			rec.chains[k] = r.chain()
		}
	default:
		return nil, fmt.Errorf("durable: unknown record kind %d", rec.kind)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rec, nil
}
