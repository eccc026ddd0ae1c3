package persist

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCheckpointLoad throws arbitrary bytes at the checkpoint reader, both
// as a whole file and framed under a valid header (so the JSON and
// relation decoders see payloads the checksum would otherwise reject).
// Load must never panic, and whatever it accepts must save and reload to
// an equal snapshot.
func FuzzCheckpointLoad(f *testing.F) {
	enc := saveBytes(f, sampleSnapshot(f))
	header := bytes.IndexByte(enc, '\n') + 1
	f.Add(enc)
	f.Add(enc[header:])     // headerless: the bare JSON payload
	f.Add(enc[:len(enc)/2]) // truncated mid-payload
	f.Add(enc[:header-1])   // truncated header
	f.Add(make([]byte, 64)) // zeroed at rest
	f.Add([]byte(frame("{}")))
	f.Add(bytes.Replace(enc, []byte(" v3 "), []byte(" v9 "), 1))
	flipped := append([]byte(nil), enc...)
	flipped[header+(len(enc)-header)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, []byte(frame(string(data)))} {
			snap, err := Load(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var saved bytes.Buffer
			if err := Save(&saved, snap); err != nil {
				t.Fatalf("accepted snapshot does not save: %v", err)
			}
			again, err := Load(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatalf("saved snapshot does not reload: %v", err)
			}
			if again.ViewInit != snap.ViewInit || again.StoreVersion != snap.StoreVersion ||
				!reflect.DeepEqual(again.LastProcessed, snap.LastProcessed) ||
				!reflect.DeepEqual(again.Annotations, snap.Annotations) || len(again.Store) != len(snap.Store) {
				t.Fatalf("reload differs:\n%+v\n%+v", again, snap)
			}
			for name, rel := range snap.Store {
				got := again.Store[name]
				if got == nil || !got.Equal(rel) || got.Semantics() != rel.Semantics() ||
					got.Schema().String() != rel.Schema().String() {
					t.Fatalf("store %q reloads as\n%swant\n%s", name, got, rel)
				}
			}
		}
	})
}
