// Package wal implements the write-ahead log behind the durable serving
// core. Every committed mutation (feedback, source add/remove) is
// appended as one length-prefixed, CRC32-checksummed record and fsync'd
// to disk *before* it is applied and published, so a process crash at any
// instant loses at most the single mutation whose append never completed
// — never an acknowledged one.
//
// Frame layout (all integers little-endian):
//
//	| payload len uint32 | CRC32(payload) uint32 | payload |
//
// payload:
//
//	| seq uint64 | kind len uint8 | kind bytes | data bytes |
//
// Recovery distinguishes two failure shapes:
//
//   - A torn tail — the file ends inside a frame, or the final complete
//     frame fails its checksum. Only an append interrupted by a crash can
//     produce this (the fsync that would have made the frame durable never
//     returned, so the mutation was never acknowledged); Open truncates
//     the tail and recovery proceeds from the last complete record.
//   - Mid-log corruption — a checksum failure or malformed frame that is
//     followed by more bytes. No crash produces this (appends are strictly
//     sequential), so the log is untrustworthy and Open refuses with
//     ErrCorrupt rather than silently dropping committed history.
//
// A handle fails stop: after any failed write, fsync or truncate it
// refuses every later mutation with ErrFailed, and Open, which reads
// back what the disk holds, is the only way to resume.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"udi/internal/obs"
)

// ErrCorrupt reports mid-log corruption: the write-ahead log contains a
// damaged record with valid data after it, so recovery cannot trust any
// suffix of the log. Wrapped errors carry the byte offset.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrFailed reports a handle that has failed a write, fsync or truncate.
// After a failed fsync the kernel may already have dropped the dirty
// pages, so a later fsync that succeeds on the same handle proves
// nothing; the handle refuses every later Append, Reset and TruncateTo
// with an error wrapping ErrFailed and the first cause. Reopen to
// recover.
var ErrFailed = errors.New("wal: log failed, reopen to recover")

const (
	headerSize = 8
	// MaxRecord bounds a single record's payload; a declared length above
	// it is treated as corruption rather than an allocation request.
	MaxRecord = 1 << 28
)

// Entry is one record to append.
type Entry struct {
	Seq  uint64
	Kind string
	Data []byte
}

// Record is one decoded log entry. Seq, Kind and Data are caller-defined;
// Off is the byte offset of the record's frame in the bytes it was
// decoded from.
type Record struct {
	Seq  uint64
	Kind string
	Data []byte
	Off  int64
}

// Options configures a WAL.
type Options struct {
	// NoSync skips the fsync after each append. Appends are then durable
	// only against process crashes, not machine crashes — for tests and
	// benchmarks, not deployments.
	NoSync bool
	// Obs receives wal.append.* / wal.replay.* / wal.fsync_seconds
	// metrics; nil means obs.Default.
	Obs *obs.Registry
}

// file is what the log uses of its *os.File.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only log handle. Methods are not safe for concurrent
// use; the serving core's single-writer commit lock provides the needed
// serialization.
type WAL struct {
	f    file
	opts Options
	size int64
	// err is the first failure, wrapping ErrFailed; once set, every
	// mutation returns it.
	err error
}

// Open opens (creating if needed) the log at path, validates every
// record, truncates a torn tail left by an interrupted append, and
// returns the surviving records in append order. The file is opened
// O_APPEND, so every write lands at its end. Mid-log corruption returns
// ErrCorrupt.
func Open(path string, opts Options) (*WAL, []Record, error) {
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	recs, validEnd, err := decode(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, opts: opts, size: validEnd}
	if torn := int64(len(data)) - validEnd; torn > 0 {
		// Torn tail: the frame at validEnd never became durable, so the
		// mutation it logged was never acknowledged. Drop it.
		if err := w.truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, err
		}
		if opts.Obs.Enabled() {
			opts.Obs.Add("wal.replay.torn_records", 1)
			opts.Obs.Add("wal.replay.torn_bytes", torn)
		}
	}
	if opts.Obs.Enabled() {
		opts.Obs.Add("wal.replay.records", int64(len(recs)))
		opts.Obs.Add("wal.replay.bytes", validEnd)
	}
	return w, recs, nil
}

// decode is the one frame decoder. It reads frames from the start of
// data and returns the records of the longest valid prefix — each Data a
// window into data — and the offset where that prefix ends. A frame cut
// short by the end of data, or a final frame failing its checksum, ends
// the prefix (a torn tail). A damaged frame with bytes after it, a
// declared length above MaxRecord, or a payload that passes its checksum
// but does not parse is ErrCorrupt.
func decode(data []byte) ([]Record, int64, error) {
	var recs []Record
	off := 0
	for len(data)-off >= headerSize {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > MaxRecord {
			return nil, 0, fmt.Errorf("wal: record at offset %d declares %d bytes: %w", off, length, ErrCorrupt)
		}
		end := off + headerSize + int(length)
		if end > len(data) {
			break // torn tail: partial payload
		}
		payload := data[off+headerSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == len(data) {
				break // torn final frame: its fsync never completed
			}
			return nil, 0, fmt.Errorf("wal: checksum mismatch at offset %d: %w", off, ErrCorrupt)
		}
		rec, err := decodePayload(payload)
		if err != nil {
			// The checksum passed but the payload is malformed: the record
			// was written by something that is not this code. Refuse.
			return nil, 0, fmt.Errorf("wal: record at offset %d: %v: %w", off, err, ErrCorrupt)
		}
		rec.Off = int64(off)
		recs = append(recs, rec)
		off = end
	}
	return recs, int64(off), nil
}

func decodePayload(p []byte) (Record, error) {
	if len(p) < 9 {
		return Record{}, errors.New("payload shorter than header")
	}
	seq := binary.LittleEndian.Uint64(p[:8])
	kl := int(p[8])
	if len(p) < 9+kl {
		return Record{}, errors.New("kind overruns payload")
	}
	return Record{Seq: seq, Kind: string(p[9 : 9+kl]), Data: p[9+kl : len(p) : len(p)]}, nil
}

// ReadFrames decodes a stream of frames (the /v1/wal response body) into
// records whose Data are windows into data. Unlike Open it tolerates no
// damage at all: a shipped tail is complete by construction, so a
// partial trailing frame or a checksum failure anywhere means the
// transport mangled the stream and the whole batch is rejected with
// ErrCorrupt — a replica must never apply a prefix of a fetch it cannot
// fully validate.
func ReadFrames(data []byte) ([]Record, error) {
	recs, validEnd, err := decode(data)
	if err != nil {
		return nil, err
	}
	if validEnd != int64(len(data)) {
		return nil, fmt.Errorf("wal: frame at offset %d is incomplete or fails its checksum: %w", validEnd, ErrCorrupt)
	}
	return recs, nil
}

// appendFrame encodes one record as a length-prefixed CRC32 frame onto
// buf and returns the extended slice.
func appendFrame(buf []byte, seq uint64, kind string, data []byte) []byte {
	payload := make([]byte, 9+len(kind)+len(data))
	binary.LittleEndian.PutUint64(payload[:8], seq)
	payload[8] = byte(len(kind))
	copy(payload[9:], kind)
	copy(payload[9+len(kind):], data)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append durably logs the entries under a single write and a single
// fsync (unless Options.NoSync) — the group-commit barrier amortized
// across them. Each entry becomes an ordinary frame, so replay needs no
// batch awareness: a crash mid-append leaves at most a torn final frame
// (which Open truncates) after a clean prefix of the entries — never an
// interleaving or a gap. A failed write or fsync truncates back to the
// last good frame and fails the handle (ErrFailed).
func (w *WAL) Append(entries ...Entry) error {
	if w.err != nil {
		return w.err
	}
	if len(entries) == 0 {
		return nil
	}
	var buf []byte
	for _, e := range entries {
		if len(e.Kind) > 255 {
			return fmt.Errorf("wal: kind %q longer than 255 bytes", e.Kind)
		}
		buf = appendFrame(buf, e.Seq, e.Kind, e.Data)
	}
	t0 := time.Now()
	if _, err := w.f.Write(buf); err != nil {
		return w.fail(fmt.Errorf("wal: append: %w", err))
	}
	if !w.opts.NoSync {
		ts := time.Now()
		if err := w.f.Sync(); err != nil {
			return w.fail(fmt.Errorf("wal: fsync: %w", err))
		}
		w.opts.Obs.Observe("wal.fsync_seconds", time.Since(ts).Seconds())
	}
	w.size += int64(len(buf))
	if r := w.opts.Obs; r.Enabled() {
		r.Add("wal.append.records", int64(len(entries)))
		r.Add("wal.append.bytes", int64(len(buf)))
		r.Observe("wal.append.seconds", time.Since(t0).Seconds())
		r.Add("wal.append.batches", 1)
		r.Observe("wal.append.batch_records", float64(len(entries)))
	}
	return nil
}

// Reset empties the log (checkpoint rotation: the snapshot now covers
// everything the log held).
func (w *WAL) Reset() error { return w.truncate(0) }

// TruncateTo drops every frame at or after byte offset off (recovery
// discarding an uncommitted tail operation).
func (w *WAL) TruncateTo(off int64) error { return w.truncate(off) }

func (w *WAL) truncate(off int64) error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Truncate(off); err != nil {
		return w.fail(fmt.Errorf("wal: truncate: %w", err))
	}
	w.size = off
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	return nil
}

// fail drops, best effort, whatever the failed call left past the last
// good frame, then makes cause the handle's terminal error.
func (w *WAL) fail(cause error) error {
	if w.f.Truncate(w.size) == nil {
		_ = w.f.Sync()
	}
	w.err = fmt.Errorf("%w: %w", ErrFailed, cause)
	return w.err
}

// Size returns the byte length of the valid log.
func (w *WAL) Size() int64 { return w.size }

// Close closes the underlying file.
func (w *WAL) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
