// Package wal is the mediator's durable write-ahead delta log. Every
// committed update transaction appends one checksummed, length-prefixed
// record — the committed store version, the Reflect vector, and the
// transaction's combined source deltas in the columnar wire encoding —
// BEFORE the version is published (core.CommitLog, called from the
// commit path under the store mutex). Group commit falls out of the
// existing batching: the batched runtime drains N queued announcements
// as ONE transaction (one record), and the SyncBatch policy further
// amortizes the fsync across a whole drained batch.
//
// Periodic compaction checkpoints the current store version into a
// persist snapshot (copy-on-write: Mediator.Snapshot pins the immutable
// published version, so commits keep flowing while the checkpoint
// writes) and retires the log prefix it covers. Crash recovery loads the
// newest readable checkpoint and replays the log tail through the
// mediator's own update-transaction path, stopping cleanly at the first
// torn or corrupt record — a mid-write crash recovers to the last
// complete transaction instead of refusing to start.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/persist"
	"squirrel/internal/wire"
)

// Record framing:
//
//	[4B magic "SQWL"] [1B type] [4B payload len, LE] [4B CRC32C, LE] [payload]
//
// The checksum covers the type byte and the payload, so a flipped type
// or a torn payload both fail verification. Integers are little-endian.
// The payload itself is JSON — small next to the fsync that dominates
// each append, and debuggable with nothing but `strings`.
const (
	magic      = "SQWL"
	headerSize = 4 + 1 + 4 + 4

	// TypeCommit records one committed update transaction.
	TypeCommit byte = 1
	// TypeBarrier records a publish that did not flow through the
	// update-transaction path (resync, re-annotation): replay cannot
	// cross it.
	TypeBarrier byte = 2

	// maxPayload bounds a record's declared payload length. A torn or
	// bit-flipped length field would otherwise make the scanner attempt
	// a multi-gigabyte allocation before the checksum could object.
	maxPayload = 1 << 30
)

// ErrTorn reports a record that does not verify: short header, short
// payload, bad magic, unknown type, or checksum mismatch. The scanner
// treats it as the torn tail of a crashed append — everything before it
// is intact, everything from it on is discarded.
var ErrTorn = errors.New("wal: torn or corrupt record")

// appendRecord frames (typ, payload) onto buf and returns the extended
// buffer.
func appendRecord(buf []byte, typ byte, payload []byte) []byte {
	buf = append(buf, magic...)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	sum := persist.Checksum(append([]byte{typ}, payload...))
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	return append(buf, payload...)
}

// DecodeRecord reads one framed record from the front of b, returning
// the record and how many bytes it consumed. Any defect — including a
// clean EOF in the middle of a record — is ErrTorn; len(b) == 0 is
// (0, nil, 0, nil): the scan loop's clean end.
func DecodeRecord(b []byte) (typ byte, payload []byte, consumed int, err error) {
	if len(b) == 0 {
		return 0, nil, 0, nil
	}
	if len(b) < headerSize {
		return 0, nil, 0, fmt.Errorf("%w: %d-byte tail", ErrTorn, len(b))
	}
	if string(b[:4]) != magic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic %q", ErrTorn, b[:4])
	}
	typ = b[4]
	if typ != TypeCommit && typ != TypeBarrier {
		return 0, nil, 0, fmt.Errorf("%w: unknown record type %d", ErrTorn, typ)
	}
	n := binary.LittleEndian.Uint32(b[5:9])
	if n > maxPayload {
		return 0, nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrTorn, n)
	}
	sum := binary.LittleEndian.Uint32(b[9:13])
	if len(b) < headerSize+int(n) {
		return 0, nil, 0, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrTorn, len(b)-headerSize, n)
	}
	payload = b[headerSize : headerSize+int(n)]
	if got := persist.Checksum(append([]byte{typ}, payload...)); got != sum {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch (%08x, want %08x)", ErrTorn, got, sum)
	}
	return typ, payload, headerSize + int(n), nil
}

// commitPayload is the JSON body of a TypeCommit record.
type commitPayload struct {
	Version       uint64                `json:"version"`
	Stamp         clock.Time            `json:"stamp"`
	Reflect       map[string]clock.Time `json:"reflect"`
	NewRef        map[string]clock.Time `json:"new_ref"`
	Announcements int                   `json:"announcements,omitempty"`
	Deltas        []wire.RelDeltaCols   `json:"deltas,omitempty"`
}

// barrierPayload is the JSON body of a TypeBarrier record.
type barrierPayload struct {
	Version uint64 `json:"version"`
	Reason  string `json:"reason"`
}

// encodeCommit renders a commit record payload. Deltas are emitted in
// sorted relation order so identical transactions produce identical
// bytes.
func encodeCommit(rec *core.CommitRecord) ([]byte, error) {
	p := commitPayload{
		Version:       rec.Version,
		Stamp:         rec.Stamp,
		Reflect:       rec.Reflect,
		NewRef:        rec.NewRef,
		Announcements: rec.Announcements,
	}
	if rec.Delta != nil {
		p.Deltas = wire.EncodeDelta(rec.Delta).Rels
	}
	return json.Marshal(p)
}

// decodeCommit parses a commit record payload back into the form replay
// consumes.
func decodeCommit(payload []byte) (*core.CommitRecord, error) {
	var p commitPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("wal: commit payload: %w", err)
	}
	if p.Version == 0 {
		return nil, fmt.Errorf("wal: commit payload has no version")
	}
	d, err := wire.Delta{Rels: p.Deltas}.Decode()
	if err != nil {
		return nil, fmt.Errorf("wal: commit v%d: %w", p.Version, err)
	}
	rec := &core.CommitRecord{
		Version:       p.Version,
		Stamp:         p.Stamp,
		Reflect:       clock.Vector(p.Reflect),
		NewRef:        clock.Vector(p.NewRef),
		Announcements: p.Announcements,
		Delta:         d,
	}
	if rec.Reflect == nil {
		rec.Reflect = clock.Vector{}
	}
	if rec.NewRef == nil {
		rec.NewRef = clock.Vector{}
	}
	return rec, nil
}

func decodeBarrier(payload []byte) (*barrierPayload, error) {
	var p barrierPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("wal: barrier payload: %w", err)
	}
	return &p, nil
}
