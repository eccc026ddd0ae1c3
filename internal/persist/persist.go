// Package persist is the WAL's checkpoint envelope: it serializes a
// mediator's durable state (core.StateSnapshot — the materialized store,
// its ref′ vector and the live annotation) as CRC-sealed JSON, written
// atomically. internal/wal writes one per compaction and on clean
// shutdown, and recovery loads the newest readable one before replaying
// the log.
package persist

import (
	"encoding/json"
	"fmt"
	"io"

	"squirrel/internal/clock"
	"squirrel/internal/core"
	"squirrel/internal/relation"
	"squirrel/internal/vdp"
	"squirrel/internal/wire"
)

// Version identifies the envelope layout. Version 3 frames the JSON
// payload with a magic + CRC32C + length header line (see envelope.go) so
// corruption is detected before decoding, and stores relations in the
// wire's columnar relation form (wire.EncodeRelation), the same one poll
// answers carry. Load reads only this version.
const Version = 3

type envelope struct {
	Version       int                      `json:"version"`
	Store         map[string]wire.Relation `json:"store"`
	LastProcessed map[string]clock.Time    `json:"last_processed"`
	ViewInit      clock.Time               `json:"view_init"`
	// StoreVersion is the published store version the snapshot was cut
	// from. Absent (zero) in envelopes written before versioning; Restore
	// then resumes numbering at 1.
	StoreVersion uint64 `json:"store_version,omitempty"`
	// Annotations records, per non-leaf node, each attribute's
	// materialization as "m" or "v" — the live annotation the saving
	// mediator had adapted to (§5.3). Absent in envelopes written before
	// adaptive annotation; Restore then keeps the constructed plan's
	// annotation.
	Annotations map[string]map[string]string `json:"annotations,omitempty"`
}

// encodeAnnotations renders annotations in the envelope's stable "m"/"v"
// string form (Mat's numeric values are an implementation detail).
func encodeAnnotations(anns map[string]vdp.Annotation) map[string]map[string]string {
	if anns == nil {
		return nil
	}
	out := make(map[string]map[string]string, len(anns))
	for node, ann := range anns {
		m := make(map[string]string, len(ann))
		for attr, mat := range ann {
			m[attr] = mat.String()
		}
		out[node] = m
	}
	return out
}

func decodeAnnotations(enc map[string]map[string]string) (map[string]vdp.Annotation, error) {
	if enc == nil {
		return nil, nil
	}
	out := make(map[string]vdp.Annotation, len(enc))
	for node, m := range enc {
		ann := make(vdp.Annotation, len(m))
		for attr, s := range m {
			switch s {
			case "m":
				ann[attr] = vdp.Materialized
			case "v":
				ann[attr] = vdp.Virtual
			default:
				return nil, fmt.Errorf("annotation %s.%s: unknown materialization %q", node, attr, s)
			}
		}
		out[node] = ann
	}
	return out, nil
}

// Save writes a snapshot to w.
func Save(w io.Writer, snap *core.StateSnapshot) error {
	if snap == nil {
		return fmt.Errorf("persist: nil snapshot")
	}
	env := envelope{
		Version: Version,
		Store:   make(map[string]wire.Relation, len(snap.Store)),
		// Clone: the envelope must not alias the caller's snapshot — a
		// concurrent mutation of snap.LastProcessed mid-encode would
		// corrupt the written ref′ vector.
		LastProcessed: snap.LastProcessed.Clone(),
		ViewInit:      snap.ViewInit,
		StoreVersion:  snap.StoreVersion,
		Annotations:   encodeAnnotations(snap.Annotations),
	}
	for name, rel := range snap.Store {
		env.Store[name] = wire.EncodeRelation(rel)
	}
	payload, err := json.MarshalIndent(env, "", " ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	return writeEnvelope(w, payload)
}

// Load reads a snapshot from r, verifying the v3 header checksum; corrupt,
// truncated or headerless input fails with an error matching ErrCorrupt.
func Load(r io.Reader) (*core.StateSnapshot, error) {
	payload, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("persist: unsupported snapshot version %d", env.Version)
	}
	anns, err := decodeAnnotations(env.Annotations)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	snap := &core.StateSnapshot{
		Store:         make(map[string]*relation.Relation, len(env.Store)),
		LastProcessed: clock.Vector(env.LastProcessed),
		ViewInit:      env.ViewInit,
		StoreVersion:  env.StoreVersion,
		Annotations:   anns,
	}
	if snap.LastProcessed == nil {
		snap.LastProcessed = clock.Vector{}
	}
	for name, wr := range env.Store {
		rel, err := wr.Decode()
		if err == nil {
			err = conforms(rel, len(wr.Counts))
		}
		if err != nil {
			return nil, fmt.Errorf("persist: store %q: %w", name, err)
		}
		snap.Store[name] = rel
	}
	return snap, nil
}

// conforms rejects a decoded store its own schema forbids: a value whose
// kind is not its attribute's (NULL aside), or a keyed relation holding
// one key twice. rows is the payload's row count, which decoding a set
// silently merges when rows repeat.
func conforms(rel *relation.Relation, rows int) error {
	s := rel.Schema()
	attrs := s.Attrs()
	keyPos, _ := s.Positions(s.KeyAttrs())
	keys := make(map[string]bool)
	var err error
	rel.Each(func(t relation.Tuple, n int) bool {
		for i, v := range t {
			if !v.IsNull() && v.Kind() != attrs[i].Type {
				err = fmt.Errorf("attribute %q is %s but holds the %s %s", attrs[i].Name, attrs[i].Type, v.Kind(), v)
				return false
			}
		}
		if len(keyPos) > 0 {
			k := t.KeyOn(keyPos)
			if n > 1 || keys[k] {
				err = fmt.Errorf("key %v holds %s more than once", s.KeyAttrs(), t.Project(keyPos))
				return false
			}
			keys[k] = true
		}
		return true
	})
	if err == nil && len(keyPos) > 0 && rel.Len() != rows {
		err = fmt.Errorf("key %v: %d rows collapse to %d tuples", s.KeyAttrs(), rows, rel.Len())
	}
	return err
}
