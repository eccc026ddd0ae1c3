package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"squirrel/internal/core"
)

// Envelope v3 prepends a one-line header to the JSON payload:
//
//	%SQRLSNAP v3 crc32c=%08x len=%d\n
//	{ ...JSON... }
//
// The checksum (CRC32-Castagnoli over the payload bytes) and the exact
// payload length let Load reject truncated or bit-flipped snapshots with
// ErrCorrupt before JSON decoding ever sees them. Input without the header
// is corrupt too, so a damaged first byte cannot pass for a snapshot.

// magic is the first token of a v3 snapshot header.
const magic = "%SQRLSNAP"

// ErrCorrupt reports a snapshot or WAL payload that is present but
// damaged: truncated mid-write, bit-flipped at rest, or checksum-mismatched.
// Distinct from decode errors on well-formed-but-unsupported input; callers
// (crash recovery in particular) match it with errors.Is to decide between
// "fall back to an older snapshot" and "refuse to start".
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// castagnoli is the CRC32-C table shared by the snapshot envelope and the
// WAL record framing (internal/wal).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-Castagnoli checksum used by the v3 envelope and
// the WAL record framing.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// writeEnvelope frames payload with the v3 header.
func writeEnvelope(w io.Writer, payload []byte) error {
	if _, err := fmt.Fprintf(w, "%s v%d crc32c=%08x len=%d\n",
		magic, Version, Checksum(payload), len(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readEnvelope returns the verified payload of a v3 envelope.
func readEnvelope(r io.Reader) ([]byte, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(len(magic)); string(head) != magic {
		if err != nil && err != io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: no snapshot header", ErrCorrupt)
	}
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	var ver int
	var sum uint32
	var n int
	// "%%" escapes the magic's leading '%' in the scan format.
	if _, err := fmt.Sscanf(header, "%%"+magic[1:]+" v%d crc32c=%x len=%d", &ver, &sum, &n); err != nil {
		return nil, fmt.Errorf("%w: malformed header %q", ErrCorrupt, header)
	}
	if ver != Version || n < 0 {
		return nil, fmt.Errorf("persist: unsupported snapshot header version %d", ver)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("%w: payload truncated (want %d bytes): %v", ErrCorrupt, n, err)
	}
	if got := Checksum(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum mismatch (header %08x, payload %08x)", ErrCorrupt, sum, got)
	}
	return payload, nil
}

// SaveFile atomically replaces path with a snapshot of snap: the envelope
// is written to a temp file in the same directory, fsynced, renamed over
// path, and the directory fsynced — a crash at any instant leaves either
// the old complete snapshot or the new one, never a torn mix.
func SaveFile(path string, snap *core.StateSnapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var buf bytes.Buffer
	if err := Save(&buf, snap); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*core.StateSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Errors are surfaced: on filesystems that reject directory fsync the
// caller may choose to ignore them, but silent loss is not our call.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: sync %s: %w", dir, err)
	}
	return nil
}
