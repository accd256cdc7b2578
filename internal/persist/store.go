package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"udi/internal/core"
	"udi/internal/obs"
	"udi/internal/schema"
	"udi/internal/wal"
)

// Store file layout inside the data directory.
const (
	snapshotFile = "snapshot.udi.gz"
	walFile      = "wal.log"
)

// HasSnapshot reports whether dir contains a store checkpoint — the test
// a multi-store layout (internal/shard) uses to distinguish a shard that
// owns sources from one that is empty (an empty corpus cannot be
// checkpointed, so an empty shard has no store files at all).
func HasSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapshotFile))
	return err == nil
}

// RemoveStoreFiles deletes the snapshot and WAL from dir (plus stranded
// checkpoint temp files), the transition a shard store makes when its
// last source is removed. The snapshot goes first: a crash in between
// leaves a WAL with no snapshot, which HasSnapshot classifies as "no
// store", exactly the intended end state.
func RemoveStoreFiles(dir string) error {
	if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: %w", err)
	}
	removeStaleTemps(dir)
	return nil
}

// removeStaleTemps deletes the temp files an interrupted checkpoint
// strands in dir.
func removeStaleTemps(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, snapshotFile+".tmp*"))
	for _, p := range stale {
		os.Remove(p)
	}
}

// WriteFileAtomic exposes the store's atomic file replacement (write to a
// temp file, fsync, rename, fsync the directory) for sibling durability
// layers — the shard coordinator's manifest and journal use it so those
// files are never observed half-written.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return writeFileAtomic(path, write)
}

// DefaultCheckpointEvery is the number of committed mutations between
// automatic checkpoints when StoreOptions leaves CheckpointEvery zero.
const DefaultCheckpointEvery = 64

// AbortKind marks a WAL record that compensates an earlier record of the
// same sequence: binaries that write-ahead-logged (before the commit
// path became apply-before-log) recorded a mutation that was logged but
// failed to apply this way, and Replay skips the pair. Nothing writes it
// any more — it is read-only history a data dir or a shipped tail may
// still hold. It is a wal-level kind, never a core.Op kind.
const AbortKind = "abort"

// ErrTruncated reports a WAL tail request from a sequence the log no
// longer holds: a checkpoint rotation folded it into the snapshot. The
// follower must re-bootstrap from a fresh snapshot instead of replaying.
var ErrTruncated = errors.New("persist: wal tail truncated by checkpoint")

// ErrBeyondTail reports a WAL tail request from a sequence the log has
// not reached yet — the follower asked for the future, which signals a
// desynchronized or corrupt follower state rather than normal lag.
var ErrBeyondTail = errors.New("persist: wal tail request beyond last sequence")

// StoreOptions configures a durable Store.
type StoreOptions struct {
	// CheckpointEvery is the number of committed mutations after which
	// the store snapshots the system and truncates the WAL. Zero means
	// DefaultCheckpointEvery.
	CheckpointEvery uint64
	// NoSync skips fsync on WAL appends. Only for tests and benchmarks:
	// it trades crash durability for speed.
	NoSync bool
	// Obs receives wal.* and checkpoint.* metrics. Nil disables them.
	Obs *obs.Registry
}

// Status describes the durability state of a Store at a point in time.
type Status struct {
	// CheckpointSeq is the WAL sequence the on-disk snapshot covers.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// CheckpointAt is when that snapshot was written.
	CheckpointAt time.Time `json:"checkpoint_at"`
	// LastSeq is the sequence of the most recent WAL record.
	LastSeq uint64 `json:"last_seq"`
	// WALRecords and WALBytes measure the live WAL tail.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Replayed is how many mutations the last open replayed from the WAL.
	Replayed int `json:"replayed"`
}

// Store makes a core.System durable: it logs every mutation before it is
// published and periodically checkpoints the full system to an atomically
// replaced snapshot, truncating the log. OpenStore recovers the exact
// last-committed state after a crash by loading the snapshot and
// replaying the WAL tail.
//
// Lock order is commitMu (core) then Store.mu: the CommitLog methods run
// under the core's commit lock and take mu inside it; Checkpoint takes
// commitMu first via core.Barrier. Status takes only mu, so it is safe
// from any goroutine.
type Store struct {
	dir  string
	opts StoreOptions
	sys  *core.System

	mu              sync.Mutex
	w               *wal.WAL
	lastSeq         uint64
	committedSeq    uint64
	checkpointSeq   uint64
	checkpointAt    time.Time
	walRecords      int
	replayed        int
	sinceCheckpoint uint64
}

// OpenStore opens (or initializes) the durable system in dir. When no
// snapshot exists, setup builds the initial system and the store writes
// its first checkpoint; on later opens setup is not called — the system
// is restored from the snapshot plus the WAL tail.
//
// A torn final WAL record (the crash interrupted an append whose fsync
// never completed, so the mutation was never acknowledged) is truncated
// and recovery proceeds. Damage anywhere else — an unreadable snapshot,
// a corrupt record with more records after it — refuses with an error
// wrapping ErrCorrupt or wal.ErrCorrupt rather than serving a state no
// committed epoch ever equaled.
func OpenStore(dir string, cfg core.Config, opts StoreOptions, setup func() (*core.System, error)) (*core.System, *Store, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	removeStaleTemps(dir)
	return openStoreOnce(dir, cfg, opts, setup, true)
}

func openStoreOnce(dir string, cfg core.Config, opts StoreOptions, setup func() (*core.System, error), allowRetry bool) (*core.System, *Store, error) {
	snapPath := filepath.Join(dir, snapshotFile)
	walPath := filepath.Join(dir, walFile)

	var (
		sys     *core.System
		baseSeq uint64
		fresh   bool
	)
	if _, err := os.Stat(snapPath); err == nil {
		sys, baseSeq, err = loadFileMeta(snapPath, cfg)
		if err != nil {
			return nil, nil, err
		}
	} else if os.IsNotExist(err) {
		sys, err = setup()
		if err != nil {
			return nil, nil, err
		}
		fresh = true
	} else {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}

	w, recs, err := wal.Open(walPath, wal.Options{NoSync: opts.NoSync, Obs: opts.Obs})
	if err != nil {
		return nil, nil, err
	}

	lastSeq, replayed, failed, err := Replay(sys, recs, baseSeq)
	if err != nil {
		if failed == len(recs)-1 && allowRetry {
			// A write-ahead log from an older binary may have crashed
			// between this append and its abort record: the mutation was
			// never acknowledged, so dropping it recovers the last
			// committed state. Replay already mutated sys, so reopen from
			// scratch.
			terr := w.TruncateTo(recs[failed].Off)
			w.Close()
			if terr != nil {
				return nil, nil, terr
			}
			return openStoreOnce(dir, cfg, opts, setup, false)
		}
		w.Close()
		return nil, nil, fmt.Errorf("persist: wal replay: %w (%v)", ErrCorrupt, err)
	}
	if r := opts.Obs; r.Enabled() {
		r.Add("wal.replay.applied", int64(replayed))
	}

	st := &Store{
		dir:  dir,
		opts: opts,
		sys:  sys,
		w:    w,
		// Everything in the log at open time is settled (applied, aborted,
		// or dropped as a torn tail), so the committed watermark starts at
		// the last sequence — the WAL tail is immediately shippable.
		lastSeq:       lastSeq,
		committedSeq:  lastSeq,
		checkpointSeq: baseSeq,
		walRecords:    len(recs),
		replayed:      replayed,
	}
	if fi, err := os.Stat(snapPath); err == nil {
		st.checkpointAt = fi.ModTime()
	}
	// A fresh directory gets its first checkpoint immediately so a crash
	// before any mutation still warm-starts; a long replay gets folded
	// into the snapshot so the next start does not pay it again.
	if fresh || uint64(replayed) >= opts.CheckpointEvery {
		if err := st.checkpointLocked(); err != nil {
			w.Close()
			return nil, nil, err
		}
	}
	sys.SetCommitLog(st)
	return sys, st, nil
}

// Replay applies the logged mutations in recs whose sequence is above
// after to sys, in order — the one loop behind store recovery and a read
// replica's tail replay, so both run a primary's records through
// identical code. It runs in two phases: compensated sequences are
// collected first, so an op an older binary logged and then aborted is
// skipped even though its record decodes fine, then the survivors are
// applied. sys must not have a CommitLog attached (nothing re-logs).
//
// It returns the last sequence settled (applied, compensated or already
// covered; at least after), the number of mutations applied and, with
// the error, the index in recs of the record that failed to decode or
// apply — everything before it has been applied.
func Replay(sys *core.System, recs []wal.Record, after uint64) (last uint64, applied, failed int, err error) {
	aborted := make(map[uint64]bool)
	for _, r := range recs {
		if r.Kind == AbortKind {
			aborted[r.Seq] = true
		}
	}
	last = after
	for i, r := range recs {
		if r.Seq <= after {
			continue
		}
		if r.Kind != AbortKind && !aborted[r.Seq] {
			var op core.Op
			err := json.Unmarshal(r.Data, &op)
			if err == nil {
				err = applyOp(sys, op)
			}
			if err != nil {
				return last, applied, i, fmt.Errorf("record %d (seq %d, kind %q): %w", i, r.Seq, r.Kind, err)
			}
			applied++
		}
		last = r.Seq
	}
	return last, applied, -1, nil
}

// applyOp replays one logged mutation through the system's public
// mutation API. The caller has not yet attached the store as the
// system's CommitLog, so nothing re-logs.
func applyOp(sys *core.System, op core.Op) error {
	switch op.Kind {
	case core.OpFeedback:
		if op.Feedback == nil {
			return fmt.Errorf("feedback op without payload")
		}
		return sys.SubmitFeedback(*op.Feedback)
	case core.OpAddSource:
		if op.Add == nil {
			return fmt.Errorf("add_source op without payload")
		}
		src, err := op.Add.Source()
		if err != nil {
			return err
		}
		// A logged add replays as a one-element batch, whichever batch
		// size originally committed it.
		_, err = sys.AddSources([]*schema.Source{src})
		return err
	case core.OpRemoveSource:
		_, err := sys.RemoveSource(op.Remove)
		return err
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}

// Begin implements core.CommitLog: every op of one commit gets a
// consecutive sequence number and all of them become durable under a
// single wal.Append — one write, one fsync. Each op lands as an
// ordinary frame, so replay needs no batch awareness: a crash mid-append
// leaves a clean prefix of the batch (wal's torn-tail truncation), and
// the core only logs ops that already applied, so replaying any prefix
// is deterministic. A failed append fails the log for good (wal.ErrFailed):
// this and every later commit are refused until the store is reopened.
// Called under the core commit lock.
func (st *Store) Begin(ops []core.Op) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	first := st.lastSeq + 1
	entries := make([]wal.Entry, len(ops))
	for i := range ops {
		data, err := json.Marshal(&ops[i])
		if err != nil {
			return 0, fmt.Errorf("persist: encode op: %w", err)
		}
		entries[i] = wal.Entry{Seq: first + uint64(i), Kind: ops[i].Kind, Data: data}
	}
	if err := st.w.Append(entries...); err != nil {
		return 0, err
	}
	st.lastSeq += uint64(len(ops))
	st.walRecords += len(ops)
	return first, nil
}

// Committed implements core.CommitLog: the ops published as one epoch.
// Rotation accounting advances by the number of ops, so checkpoint
// cadence tracks mutations, not barriers. It still runs under the core
// commit lock, so the writer state a rotation snapshots is stable and a
// checkpoint boundary never splits a batch.
func (st *Store) Committed(firstSeq uint64, n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if end := firstSeq + uint64(n) - 1; end > st.committedSeq {
		st.committedSeq = end
	}
	st.sinceCheckpoint += uint64(n)
	if st.sinceCheckpoint < st.opts.CheckpointEvery {
		return
	}
	if err := st.checkpointLocked(); err != nil {
		// The commit itself is durable in the WAL; the failed rotation
		// costs replay time, not correctness. Counted, then retried
		// after another CheckpointEvery commits.
		st.opts.Obs.Add("checkpoint.errors", 1)
		st.sinceCheckpoint = 0
	}
}

// checkpointLocked snapshots the system atomically, records the WAL
// sequence it covers, and truncates the WAL. Caller holds st.mu and
// guarantees the system's writer state is stable (the core commit lock,
// or exclusive access during open). Crash-safe at every point: the
// snapshot replaces the old one atomically, and until Reset the WAL
// retains records the snapshot covers, which replay skips by sequence.
func (st *Store) checkpointLocked() error {
	t0 := time.Now()
	seq := st.lastSeq
	path := filepath.Join(st.dir, snapshotFile)
	err := writeFileAtomic(path, func(w io.Writer) error {
		return saveSnapshot(w, st.sys, seq)
	})
	if err != nil {
		return err
	}
	if err := st.w.Reset(); err != nil {
		return err
	}
	st.checkpointSeq = seq
	st.checkpointAt = time.Now()
	st.walRecords = 0
	st.sinceCheckpoint = 0
	if r := st.opts.Obs; r.Enabled() {
		r.Add("checkpoint.count", 1)
		r.Observe("checkpoint.seconds", time.Since(t0).Seconds())
		if fi, err := os.Stat(path); err == nil {
			r.Observe("checkpoint.bytes", float64(fi.Size()))
		}
	}
	return nil
}

// Checkpoint forces a snapshot + WAL truncation now. It takes the core
// commit lock (via Barrier) so the state it persists is a committed
// epoch, then the store lock, respecting the documented lock order.
func (st *Store) Checkpoint() error {
	var err error
	st.sys.Barrier(func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		err = st.checkpointLocked()
	})
	return err
}

// LastCommittedSeq returns the newest WAL sequence whose mutation is
// settled (applied and published, or found settled in the log at open) —
// the watermark up to which the log may be shipped to followers.
func (st *Store) LastCommittedSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.committedSeq
}

// Tail is the metadata accompanying a shipped WAL tail.
type Tail struct {
	// From is the sequence the request asked to resume after.
	From uint64 `json:"from"`
	// Committed is the primary's settled watermark at serve time; the
	// shipped frames cover (From, Committed].
	Committed uint64 `json:"committed"`
	// CheckpointSeq is the sequence the primary's snapshot covers; a
	// follower behind it cannot catch up from the log alone.
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Records is the number of frames shipped.
	Records int `json:"records"`
}

// TailSince returns the CRC-framed WAL records with sequence in
// (from, committed], as the log's own bytes, for shipping to a read
// replica. maxBytes bounds the response (0 = no bound; at least one
// record is always shipped when any qualifies).
//
// A from below the checkpoint sequence returns ErrTruncated — those
// records were folded into the snapshot and the follower must
// re-bootstrap. A from beyond the last sequence returns ErrBeyondTail —
// the follower is ahead of the primary, which no amount of replay fixes.
// Runs under the store lock, so appends and checkpoint rotations never
// interleave with the file scan.
func (st *Store) TailSince(from uint64, maxBytes int64) ([]byte, Tail, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	info := Tail{From: from, Committed: st.committedSeq, CheckpointSeq: st.checkpointSeq}
	if from < st.checkpointSeq {
		return nil, info, fmt.Errorf("%w: from %d, checkpoint covers %d", ErrTruncated, from, st.checkpointSeq)
	}
	if from > st.lastSeq {
		return nil, info, fmt.Errorf("%w: from %d, last sequence %d", ErrBeyondTail, from, st.lastSeq)
	}
	if from >= st.committedSeq {
		return nil, info, nil
	}
	data, err := os.ReadFile(filepath.Join(st.dir, walFile))
	if err != nil {
		return nil, info, fmt.Errorf("persist: %w", err)
	}
	// The live log is clean up to the WAL's valid-size watermark (a torn
	// tail only exists after a crash, and Open already dropped it).
	data = data[:min(int64(len(data)), st.w.Size())]
	recs, err := wal.ReadFrames(data)
	if err != nil {
		return nil, info, err
	}
	// Sequences ascend through the log, so the frames to ship are one run
	// of its bytes: from the first record above from to the first past
	// the watermark or the byte budget.
	start, end := int64(len(data)), int64(len(data))
	for _, r := range recs {
		if r.Seq <= from {
			continue
		}
		if info.Records == 0 {
			start = r.Off
		}
		if r.Seq > st.committedSeq || (maxBytes > 0 && info.Records > 0 && r.Off-start >= maxBytes) {
			end = r.Off
			break
		}
		info.Records++
	}
	return data[start:end], info, nil
}

// SaveSnapshotAt writes a snapshot of the store's system carrying the
// current committed WAL sequence, under a commit barrier so the state is
// a published epoch — the bootstrap payload a read replica loads before
// tailing the log from the returned sequence.
func (st *Store) SaveSnapshotAt(w io.Writer) (uint64, error) {
	var seq uint64
	var err error
	st.sys.Barrier(func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		seq = st.committedSeq
		err = saveSnapshot(w, st.sys, seq)
	})
	return seq, err
}

// LoadWithSeq restores a system from a snapshot stream and returns the
// WAL sequence the snapshot covers — the point a follower resumes
// tailing from.
func LoadWithSeq(r io.Reader, cfg core.Config) (*core.System, uint64, error) {
	return load(r, cfg)
}

// Status reports the store's durability state.
func (st *Store) Status() Status {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Status{
		CheckpointSeq: st.checkpointSeq,
		CheckpointAt:  st.checkpointAt,
		LastSeq:       st.lastSeq,
		WALRecords:    st.walRecords,
		WALBytes:      st.w.Size(),
		Replayed:      st.replayed,
	}
}

// Close releases the WAL file. It does not checkpoint; callers wanting a
// clean shutdown call Checkpoint first.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.w.Close()
}
