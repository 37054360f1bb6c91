// Package checkpoint persists engine snapshots as versioned, checksummed,
// compressed files and restores them — the crash-safe half of the repo's
// deterministic-replay story.
//
// The file format is deliberately boring:
//
//	magic "NPCKPT" | version uint16 BE | payloadLen uint64 BE |
//	crc32(IEEE, payload) uint32 BE | payload
//
// where payload = gzip(gob(File)). The CRC covers the compressed payload,
// so truncation and bit rot are caught before the decoder sees a byte; the
// version field is checked before anything is decoded, so a future format
// change fails loudly instead of mis-decoding. Writes are atomic (temp file
// in the destination directory, fsync'd, then renamed), so a crash mid-write
// leaves either the previous checkpoint or none — never a torn file.
package checkpoint

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nopower/internal/sim"
	"nopower/internal/state"
)

// Version is the current snapshot format version. Decoders reject any other
// value: snapshot state is too entangled with controller internals for a
// cross-version restore to be anything but silent corruption.
const Version = 1

// magic identifies a nopower checkpoint file.
const magic = "NPCKPT"

// headerLen is magic(6) + version(2) + payloadLen(8) + crc32(4).
const headerLen = len(magic) + 2 + 8 + 4

// maxPayload caps the declared payload length (1 GiB) so a corrupt header
// cannot drive a huge allocation.
const maxPayload = 1 << 30

// Sentinel errors for the failure modes a caller may want to distinguish.
var (
	ErrBadMagic  = errors.New("checkpoint: not a checkpoint file (bad magic)")
	ErrVersion   = errors.New("checkpoint: unsupported snapshot version")
	ErrTruncated = errors.New("checkpoint: truncated file")
	ErrChecksum  = errors.New("checkpoint: checksum mismatch")
)

// Meta identifies which run a snapshot belongs to. Labels carry the run
// parameters (model, mix, ticks, seed, stack, policy, ...) so resume can
// refuse a snapshot taken under different settings instead of silently
// diverging.
type Meta struct {
	// Tick is the next tick the restored engine will execute.
	Tick int
	// MidTick marks a checkpoint-on-panic snapshot: state captured between
	// a controller's partial tick and the plant update. Inspectable, never
	// resumable.
	MidTick bool
	// Experiment names the run (CLI experiment name or scenario label).
	Experiment string
	// Labels are the run parameters used for resume validation.
	Labels map[string]string
	// CreatedUnix is the wall-clock write time (informational only).
	CreatedUnix int64
}

// File is the decoded content of a checkpoint file.
type File struct {
	Meta  Meta
	State *sim.Snapshot
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(File{}) }

// gzipWriters recycles deflate state across Encode calls. A fresh gzip
// writer allocates over a megabyte of window and hash tables — far more
// work than compressing a typical snapshot — so periodic checkpointing
// would otherwise spend its time in the allocator. BestSpeed, because
// snapshots sit on the simulation's hot path and gob state is mostly
// float64s that barely compress tighter at the default level.
var gzipWriters = sync.Pool{New: func() any {
	w, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return w
}}

// Encode serializes a File into the on-disk format.
func Encode(f *File) ([]byte, error) {
	if f == nil || f.State == nil {
		return nil, errors.New("checkpoint: nil file or state")
	}
	var payload bytes.Buffer
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(&payload)
	if err := gob.NewEncoder(zw).Encode(f); err != nil {
		gzipWriters.Put(zw)
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	err := zw.Close()
	gzipWriters.Put(zw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: compress: %w", err)
	}

	out := make([]byte, 0, headerLen+payload.Len())
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = binary.BigEndian.AppendUint64(out, uint64(payload.Len()))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload.Bytes()))
	out = append(out, payload.Bytes()...)
	return out, nil
}

// Decode parses the on-disk format back into a File. It verifies magic,
// version, declared length, and CRC before gob sees a single byte.
func Decode(data []byte) (*File, error) {
	if len(data) < headerLen {
		return nil, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	off := len(magic)
	ver := binary.BigEndian.Uint16(data[off:])
	if ver != Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, ver, Version)
	}
	off += 2
	plen := binary.BigEndian.Uint64(data[off:])
	off += 8
	if plen > maxPayload {
		return nil, fmt.Errorf("checkpoint: declared payload %d bytes exceeds limit", plen)
	}
	want := binary.BigEndian.Uint32(data[off:])
	off += 4
	payload := data[off:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("%w: header declares %d payload bytes, file carries %d", ErrTruncated, plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrChecksum
	}

	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decompress: %w", err)
	}
	defer zr.Close()
	var f File
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if f.State == nil {
		return nil, errors.New("checkpoint: file carries no snapshot state")
	}
	return &f, nil
}

// Write encodes f and writes it to path atomically: a temp file in the same
// directory, synced, then renamed over the destination. Returns the file
// size in bytes.
func Write(path string, f *File) (int64, error) {
	data, err := Encode(f)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	return int64(len(data)), nil
}

// Read loads and decodes the checkpoint at path.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Ext is the checkpoint file extension.
const Ext = ".npckpt"

// FileName returns the canonical name for a periodic checkpoint at the
// given tick. Zero-padding keeps lexical and numeric order identical.
func FileName(tick int) string { return fmt.Sprintf("ckpt-%010d%s", tick, Ext) }

// PanicFileName returns the name for a checkpoint-on-panic snapshot.
func PanicFileName(tick int) string { return fmt.Sprintf("panic-%010d%s", tick, Ext) }

// Latest returns the path of the highest-tick resumable checkpoint in dir.
// Panic snapshots (mid-tick, not resumable) are excluded. Returns "" and no
// error when the directory holds no checkpoints.
func Latest(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, Ext) {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "", nil
	}
	sort.Strings(names) // zero-padded ticks: lexical == numeric
	return filepath.Join(dir, names[len(names)-1]), nil
}
