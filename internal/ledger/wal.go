package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncEveryRecord fsyncs after each append before acknowledging it.
	// Maximum durability, one fsync per charge on the query path.
	SyncEveryRecord SyncPolicy = iota
	// SyncBatched acknowledges a record only once an fsync covering it has
	// completed, but lets concurrent appenders share one fsync (group
	// commit): a waiter whose record is not yet covered, finding no fsync
	// in flight, becomes the flush leader and syncs at once, covering
	// everything appended so far. Records appended while that fsync runs
	// wait for it, then share the next leader's single fsync, so batches
	// grow by themselves when the disk is slow and nobody waits on a timer.
	// Same never-under-count guarantee as SyncEveryRecord — an
	// acknowledged charge is always durable — at a fraction of the fsync
	// cost under concurrency.
	SyncBatched
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryRecord:
		return "every-record"
	case SyncBatched:
		return "batched"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

const walName = "wal.log"

// wal owns the open log file and the group-commit machinery.
//
// Locking: the owning Ledger serializes all writes (and file swaps during
// compaction) under its own mutex, so wal fields written on the append
// path need no extra lock. The group-commit state is guarded by flushMu,
// which is never held across an fsync — the leader syncs the file outside
// the lock so followers can queue up and appends can proceed. Because the
// leader runs without the Ledger mutex, f is additionally protected by
// flushMu against compaction's swap: the leader copies f under flushMu
// while syncing is set, and swap/close wait for syncing to clear before
// replacing or closing the file, so a leader never fsyncs a closed fd.
type wal struct {
	f    *os.File
	path string
	dir  string
	size int64
	buf  []byte // scratch frame buffer, reused across appends

	appended atomic.Uint64 // seq of the last record written to the file

	flushMu   sync.Mutex
	flushCond *sync.Cond
	synced    uint64 // seq of the last record covered by a completed fsync
	syncErr   error  // first fsync failure; latches, fails all later acks
	syncing   bool   // a flush leader is currently syncing
	lastSync  time.Time
}

// openWAL opens (creating if needed) dir/wal.log for appending. size is
// the current byte length after recovery truncated any torn tail; lastSeq
// seeds both the appended and synced watermarks — everything already in
// the file predates this process, so it is treated as durable.
func openWAL(dir string, size int64, lastSeq uint64) (*wal, error) {
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("ledger: open wal: %w", err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: seek wal: %w", err)
	}
	w := &wal{f: f, path: path, dir: dir, size: size}
	w.flushCond = sync.NewCond(&w.flushMu)
	w.appended.Store(lastSeq)
	w.synced = lastSeq
	return w, nil
}

// append writes one framed record. Callers hold the Ledger mutex. The
// record is durable only after sync (SyncEveryRecord) or waitSynced.
func (w *wal) append(r Record) error {
	w.buf = EncodeRecord(w.buf[:0], r)
	n, err := w.f.Write(w.buf)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("ledger: append wal: %w", err)
	}
	w.appended.Store(r.Seq)
	return nil
}

// sync fsyncs the file immediately and advances the synced watermark.
// Callers hold the Ledger mutex (SyncEveryRecord path and compaction).
func (w *wal) sync() error {
	target := w.appended.Load()
	err := syncFile(w.f)
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.settle(target, err)
	if err != nil {
		return fmt.Errorf("ledger: fsync wal: %w", err)
	}
	return nil
}

// settle records the outcome of an fsync that started once every record
// through target was written, and wakes all waiters. A failure latches
// syncErr and leaves lastSync and the watermark alone. Callers hold
// flushMu. Returns how many records the fsync newly made durable.
func (w *wal) settle(target uint64, err error) int64 {
	defer w.flushCond.Broadcast()
	if err != nil {
		if w.syncErr == nil {
			w.syncErr = err
		}
		return 0
	}
	w.lastSync = time.Now()
	if target <= w.synced {
		return 0
	}
	n := int64(target - w.synced)
	w.synced = target
	return n
}

// waitSynced blocks until an fsync covering seq has completed (group
// commit). The caller must NOT hold the Ledger mutex. Returns the number
// of records the caller's flush covered when it acted as leader (for
// batch-size telemetry), or 0 when it rode along as a follower.
func (w *wal) waitSynced(seq uint64) (int64, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	var batch int64
	for w.synced < seq && w.syncErr == nil {
		if w.syncing {
			// A leader is already flushing; wait for it, then lead or
			// ride the next fsync if it did not cover seq.
			w.flushCond.Wait()
			continue
		}
		// Become the flush leader and sync at once, outside the lock,
		// covering everything written so far. syncing=true keeps swap
		// (compaction) and close from replacing or closing the fd
		// mid-fsync — both wait for it to clear.
		w.syncing = true
		f, target := w.f, w.appended.Load()
		w.flushMu.Unlock()
		err := syncFile(f)
		w.flushMu.Lock()
		w.syncing = false
		batch += w.settle(target, err)
	}
	if w.syncErr != nil {
		return batch, fmt.Errorf("ledger: fsync wal: %w", w.syncErr)
	}
	return batch, nil
}

// syncedThrough reports the durable watermark, the last successful fsync
// time and the latched fsync failure, if any.
func (w *wal) syncedThrough() (uint64, time.Time, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	return w.synced, w.lastSync, w.syncErr
}

// swap replaces the open file with the freshly compacted one. Callers hold
// the Ledger mutex and have already brought the old file fully synced, so
// no group-commit waiter still needs the old file durable — but a flush
// leader may be mid-fsync on it, so swap waits for syncing to clear before
// installing the new file (under flushMu, the lock leaders copy w.f under)
// and closing the old one. No new leader can slip in between: compaction's
// preceding sync satisfied every queued waiter, and the Ledger mutex held
// here keeps new records from being appended.
func (w *wal) swap(f *os.File, size int64) {
	w.flushMu.Lock()
	for w.syncing {
		w.flushCond.Wait()
	}
	old := w.f
	w.f = f
	w.flushMu.Unlock()
	w.size = size
	old.Close()
}

func (w *wal) close() error {
	w.flushMu.Lock()
	for w.syncing {
		w.flushCond.Wait()
	}
	w.syncing = true // exclusive fd ownership: no leader syncs a closing fd
	f, target := w.f, w.appended.Load()
	w.flushMu.Unlock()

	err := syncFile(f)
	cerr := f.Close()

	w.flushMu.Lock()
	w.syncing = false
	w.settle(target, err)
	w.flushMu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// syncFile fsyncs the WAL file and fsyncDir fsyncs a directory so renames
// within it are durable. Tests swap them out to slow or fail an fsync: the
// group-commit races, the flush leader's sharing and the post-rename
// failure path in compaction.
var (
	syncFile = (*os.File).Sync
	fsyncDir = syncDir
)

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
