// Package disk implements the crash-safe file backends of the store
// interfaces (fvp/internal/store) using only the standard library:
//
//   - wal.go: an fsync'd append-only record log with CRC-framed entries.
//     Every record is durable once the append returns; recovery replays
//     the longest intact prefix and truncates a torn tail.
//   - job.go / result.go: the JobStore and ResultStore built on that log,
//     each with snapshot+compaction (the compacted log IS the snapshot —
//     a rewrite of the live state published by atomic rename).
//   - blob.go: a directory-per-blob archive published by atomic rename,
//     for large artifacts like Perfetto pipeline traces.
//
// cmd/fvpd selects this backend with -data-dir; see Open.
package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Frame layout: an 8-byte header — little-endian uint32 payload length,
// then the CRC-32C (Castagnoli) of the payload — followed by the payload
// itself. A record is valid only if it fits the file and its checksum
// matches, so a crash mid-append (short write, or garbage from a dying
// page cache) is detected and the tail discarded rather than replayed.
const frameHeaderSize = 8

// maxRecordSize bounds one framed payload. It exists to keep a corrupt
// length field from driving a giant allocation during recovery, not to
// limit real records (result records are hundreds of bytes; job specs
// smaller).
const maxRecordSize = 1 << 26 // 64 MiB

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wal is the append-only record log. It is not self-locking: the stores
// that own one serialize access under their own mutex.
type wal struct {
	path string
	f    *os.File
	// size is the current valid length of the file (frames only).
	size int64
	// appends and compactions feed store.Stats; syncs counts the fsyncs
	// appends made (one per appendAll, whatever its record count).
	appends     uint64
	compactions uint64
	syncs       uint64
}

// openWAL opens (creating if absent) the log at path and returns it with
// every intact record, in append order. If the file ends in a torn or
// corrupt frame — the signature of a crash mid-append — the tail is
// truncated away so subsequent appends extend a clean log.
func openWAL(path string) (*wal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	records, valid := scanFrames(data)
	if int64(valid) < int64(len(data)) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("disk: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{path: path, f: f, size: int64(valid)}, records, nil
}

// scanFrames parses the longest valid prefix of data, returning the
// payloads and the byte offset where validity ends.
func scanFrames(data []byte) (records [][]byte, valid int) {
	off := 0
	for {
		if off+frameHeaderSize > len(data) {
			return records, off
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordSize || off+frameHeaderSize+int(n) > len(data) {
			return records, off
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			return records, off
		}
		records = append(records, append([]byte(nil), payload...))
		off += frameHeaderSize + int(n)
	}
}

// frames encodes payloads as consecutive frames in one buffer, refusing
// any payload over the frame cap, which recovery would reject.
func frames(payloads [][]byte) ([]byte, error) {
	total := 0
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return nil, fmt.Errorf("disk: record of %d bytes exceeds the %d-byte frame cap", len(p), maxRecordSize)
		}
		total += frameHeaderSize + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, crcTable))
		buf = append(buf, p...)
	}
	return buf, nil
}

// append writes and fsyncs one record. When it returns nil the record is
// durable: it will be replayed by every future openWAL.
func (w *wal) append(payload []byte) error { return w.appendAll([][]byte{payload}) }

// appendAll frames and writes every payload, then fsyncs once. The
// durability contract is all-or-nothing at the batch level: a crash
// before the sync may persist any prefix of the batch (each frame is
// individually CRC-valid, so recovery replays whatever prefix landed),
// but once appendAll returns nil the whole batch is durable. One fsync
// for N records is the whole point — it is what lets micro-batched
// admission amortize the dominant cost of a durable enqueue.
func (w *wal) appendAll(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	buf, err := frames(payloads)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.syncs++
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size += int64(len(buf))
	w.appends += uint64(len(payloads))
	return nil
}

// rewrite atomically replaces the log's contents with records — the
// snapshot+compaction step. The new log is written beside the old one,
// fsync'd, and renamed into place, so a crash at any point leaves either
// the complete old log or the complete new one.
func (w *wal) rewrite(records [][]byte) error {
	buf, err := frames(records)
	if err != nil {
		return err
	}
	tmp := w.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	// Swap the handle to the new inode; the old one only held the
	// now-unlinked file.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	size := int64(len(buf))
	if _, err := nf.Seek(size, 0); err != nil {
		nf.Close()
		return err
	}
	w.f.Close()
	w.f = nf
	w.size = size
	w.compactions++
	return nil
}

func (w *wal) Close() error { return w.f.Close() }

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
