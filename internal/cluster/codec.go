package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"selfheal/internal/durable"
	"selfheal/internal/wfjson"
)

// Binary record codec. Every record — in the per-node journal and in the
// push/fetch replication bodies — is one framed payload
// (durable.AppendFrame: [len][crc][payload]) whose payload is:
//
//	kind    byte   (1=spec 2=entry 3=repair)
//	seq     uvarint
//	origin  string (uvarint length + bytes)
//	kind-specific body
//
// Spec bodies embed the run document as canonical JSON bytes (specs are
// rare control-plane records; the hot path is entries). Entry bodies are
// internal/durable's WAL entry encoding without its kind byte and LSN
// (durable.AppendEntryBody), with sorted map keys, so encoding is
// deterministic: the same record always produces the same bytes on every
// node. Payloads are written and read with durable's primitives.

const (
	recSpec   byte = 1
	recEntry  byte = 2
	recRepair byte = 3
)

// recordsContentType marks a binary framed-record request/response body on
// the /internal/v1/commits wire (JSON remains the curl-able GET default).
const recordsContentType = "application/x-selfheal-records"

// encodeRecord appends the binary payload (unframed) of rec to dst.
func encodeRecord(dst []byte, rec *Record) []byte {
	switch rec.Kind {
	case KindSpec:
		dst = append(dst, recSpec)
	case KindEntry:
		dst = append(dst, recEntry)
	case KindRepair:
		dst = append(dst, recRepair)
	default:
		// Unknown kinds cannot be stamped (the stamper only emits the three
		// above); encode as an explicit zero so decode rejects it loudly.
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(rec.Seq))
	dst = durable.AppendString(dst, rec.Origin)
	switch rec.Kind {
	case KindSpec:
		dst = durable.AppendString(dst, rec.Run)
		doc, err := json.Marshal(rec.Spec)
		if err != nil || rec.Spec == nil {
			doc = nil
		}
		dst = durable.AppendBytes(dst, doc)
		keys := make([]string, 0, len(rec.Init))
		for k := range rec.Init {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = durable.AppendString(dst, k)
			dst = binary.AppendVarint(dst, rec.Init[k])
		}
	case KindEntry:
		dst = durable.AppendEntryBody(dst, rec.Entry)
	case KindRepair:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Bad)))
		for _, id := range rec.Bad {
			dst = durable.AppendString(dst, id)
		}
	}
	return dst
}

// decodeRecord decodes one binary record payload.
func decodeRecord(p []byte) (*Record, error) {
	r := durable.NewReader(p)
	kind := r.Byte()
	rec := &Record{
		Seq:    int(r.Uvarint()),
		Origin: r.Str(),
	}
	switch kind {
	case recSpec:
		rec.Kind = KindSpec
		rec.Run = r.Str()
		doc := r.Bytes()
		if r.Err() == nil && len(doc) > 0 {
			rec.Spec = new(wfjson.SpecJSON)
			if err := json.Unmarshal(doc, rec.Spec); err != nil {
				return nil, fmt.Errorf("cluster: record codec: spec document: %w", err)
			}
			// Only the canonical document re-encodes to the same bytes.
			if canon, _ := json.Marshal(rec.Spec); !bytes.Equal(canon, doc) {
				return nil, fmt.Errorf("cluster: record codec: spec document is not canonical JSON")
			}
		}
		if n := r.Count(); n > 0 {
			rec.Init = make(map[string]int64, n)
			var k string
			for i := 0; i < n && r.Err() == nil; i++ {
				k = r.Key(i, k)
				rec.Init[k] = r.Varint()
			}
		}
	case recEntry:
		rec.Kind = KindEntry
		rec.Entry = r.EntryBody()
	case recRepair:
		rec.Kind = KindRepair
		n := r.Count()
		rec.Bad = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			rec.Bad = append(rec.Bad, r.Str())
		}
	default:
		return nil, fmt.Errorf("cluster: record codec: unknown kind byte %d", kind)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("cluster: record codec: %w", err)
	}
	return rec, nil
}

// encodeFramedRecord appends rec as one CRC-framed payload to dst — the
// unit both the journal and the replication wire are built from.
func encodeFramedRecord(dst []byte, rec *Record) []byte {
	return durable.AppendFrame(dst, encodeRecord(nil, rec))
}

// encodeWireRecords concatenates framed records into a replication body.
func encodeWireRecords(recs []Record) []byte {
	var dst []byte
	for i := range recs {
		dst = encodeFramedRecord(dst, &recs[i])
	}
	return dst
}

// decodeWireRecords decodes a framed replication body. Unlike the journal
// (where a torn tail is expected after a crash), the wire body travels
// over TCP: any framing damage is corruption and fails the whole body.
func decodeWireRecords(b []byte) ([]Record, error) {
	payloads, validLen := durable.SplitFrames(b)
	if validLen != len(b) {
		return nil, fmt.Errorf("cluster: record stream corrupt at byte %d of %d", validLen, len(b))
	}
	recs := make([]Record, 0, len(payloads))
	for _, p := range payloads {
		rec, err := decodeRecord(p)
		if err != nil {
			return nil, err
		}
		recs = append(recs, *rec)
	}
	return recs, nil
}
