package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"squirrel/internal/core"
	"squirrel/internal/relation"
)

// saveBytes renders snap as a v3 envelope.
func saveBytes(t testing.TB, snap *core.StateSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame wraps a JSON payload in a v3 header with a matching checksum.
func frame(payload string) string {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, []byte(payload)); err != nil {
		panic(err)
	}
	return buf.String()
}

func TestLoadRejectsEmptyInput(t *testing.T) {
	_, err := Load(strings.NewReader(""))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty input: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsTruncatedInput(t *testing.T) {
	enc := saveBytes(t, sampleSnapshot(t))
	// Every proper prefix must fail with ErrCorrupt — a truncated header,
	// a header with no payload, and a partial payload alike.
	for _, n := range []int{1, 4, len(enc) / 4, len(enc) / 2, len(enc) - 1} {
		_, err := Load(bytes.NewReader(enc[:n]))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("prefix of %d/%d bytes: err = %v, want ErrCorrupt", n, len(enc), err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	enc := saveBytes(t, sampleSnapshot(t))
	header := bytes.IndexByte(enc, '\n') + 1
	// Flip one bit at a spread of payload offsets: all must be caught by
	// the checksum, none may surface as a confusing JSON decode error.
	for _, off := range []int{header, header + (len(enc)-header)/3, len(enc) - 2} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x10
		_, err := Load(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("bit flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// A damaged header is corruption too.
	bad := append([]byte(nil), enc...)
	bad[2] ^= 0x01
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsHeaderless(t *testing.T) {
	// Input without the v3 header is corrupt, whatever follows: a bare
	// JSON payload (the retired v1/v2 layout), or bytes zeroed at rest.
	enc := saveBytes(t, sampleSnapshot(t))
	payload := enc[bytes.IndexByte(enc, '\n')+1:]
	for name, in := range map[string][]byte{
		"json payload": payload,
		"zero filled":  make([]byte, len(enc)),
	} {
		if _, err := Load(bytes.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestLoadRejectsFutureHeaderVersion(t *testing.T) {
	enc := saveBytes(t, sampleSnapshot(t))
	bad := bytes.Replace(enc, []byte(" v3 "), []byte(" v9 "), 1)
	_, err := Load(bytes.NewReader(bad))
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("future header version: err = %v, want unsupported (not ErrCorrupt)", err)
	}
}

func TestSaveFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	first := sampleSnapshot(t)
	if err := SaveFile(path, first); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewInit != first.ViewInit {
		t.Fatalf("view init = %v, want %v", got.ViewInit, first.ViewInit)
	}

	// Overwrite with a bigger snapshot; the file must be replaced whole.
	second := sampleSnapshot(t)
	second.StoreVersion = first.StoreVersion + 7
	for _, rel := range second.Store {
		for i := 0; i < 64; i++ {
			rel.Add(relation.T(int64(1000+i), "filler"), 1)
		}
		break
	}
	if err := SaveFile(path, second); err != nil {
		t.Fatal(err)
	}
	got, err = LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.StoreVersion != second.StoreVersion {
		t.Fatalf("store version = %d, want %d", got.StoreVersion, second.StoreVersion)
	}

	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory litter after SaveFile: %v", names)
	}
}

func TestSaveFileKeepsOldSnapshotOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if err := SaveFile(path, sampleSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A nil snapshot fails before any write: the old file must survive.
	if err := SaveFile(path, nil); err == nil {
		t.Fatal("nil snapshot must fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed SaveFile damaged the previous snapshot")
	}
}
