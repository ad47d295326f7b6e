package ledger

import (
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gupt/internal/dp"
	"gupt/internal/telemetry"
)

// stubSyncFile replaces the WAL fsync seam until the test ends.
func stubSyncFile(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	orig := syncFile
	syncFile = fn
	t.Cleanup(func() { syncFile = orig })
}

// On an idle batched ledger a lone charge, and a lone cache hit, ack after
// exactly one fsync and without waiting on a timer: the waiter finds no
// fsync in flight and leads one at once. FlushInterval is deprecated and
// set to a second here to prove it is ignored.
func TestLoneChargeAcksAfterOneFsync(t *testing.T) {
	l := openTest(t, t.TempDir(), Options{Sync: SyncBatched, FlushInterval: time.Second})
	b, err := l.Bind("ds", dp.NewAccountant(10))
	if err != nil {
		t.Fatal(err)
	}
	var fsyncs atomic.Int32
	stubSyncFile(t, func(f *os.File) error {
		fsyncs.Add(1)
		return f.Sync()
	})
	for _, step := range []struct {
		name string
		ack  func() error
	}{
		{"Spend", func() error { return b.Spend("q", 1) }},
		{"RecordCacheHitAs", func() error { return b.RecordCacheHitAs("tenant-a", "q") }},
	} {
		fsyncs.Store(0)
		start := time.Now()
		if err := step.ack(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if took := time.Since(start); took >= 500*time.Millisecond {
			t.Errorf("%s acked after %v; a lone record must not wait on a timer", step.name, took)
		}
		if n := fsyncs.Load(); n != 1 {
			t.Errorf("%s acked after %d fsyncs, want exactly 1", step.name, n)
		}
	}
	if st := l.Status(); st.Synced != st.Records {
		t.Errorf("acked records not covered: synced %d < records %d", st.Synced, st.Records)
	}
}

// Records appended while a leader's fsync runs share the next leader's
// single fsync. The seam holds the first fsync until the seven other
// charges have been appended, so all eight ack with at most two fsyncs.
// One fsync per record fails here, and so does an fsync held under the
// Ledger mutex, which would keep the others from appending at all.
func TestGroupCommitSharesFsync(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	l := openTest(t, dir, Options{Sync: SyncBatched, Telemetry: tel})
	b, err := l.Bind("ds", dp.NewAccountant(100))
	if err != nil {
		t.Fatal(err)
	}
	base := l.wal.appended.Load()
	var calls atomic.Int32
	stubSyncFile(t, func(f *os.File) error {
		if calls.Add(1) == 1 {
			deadline := time.Now().Add(5 * time.Second)
			for l.wal.appended.Load() < base+n && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if got := l.wal.appended.Load() - base; got < n {
				t.Errorf("only %d of %d charges appended while the first fsync ran", got, n)
			}
		}
		return f.Sync()
	})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Spend("q", 1); err != nil {
				t.Errorf("Spend: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got > 2 {
		t.Errorf("%d charges took %d fsyncs, want ≤ 2", n, got)
	}
	if got := tel.Counter("ledger.fsyncs").Value(); got > 2 {
		t.Errorf("ledger.fsyncs = %d, want ≤ 2", got)
	}
	l.Close()
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Datasets["ds"].Charges; got != n {
		t.Fatalf("recovered %d charges, want %d", got, n)
	}
}

// A failed WAL fsync must show on /ledger: Status.Poisoned names it and
// LastFsync stays at the last fsync that succeeded. Under SyncBatched the
// failure latches, so every later ack fails too.
func TestFsyncFailureShowsOnStatus(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEveryRecord, SyncBatched} {
		t.Run(policy.String(), func(t *testing.T) {
			l := openTest(t, t.TempDir(), Options{Sync: policy})
			b, err := l.Bind("ds", dp.NewAccountant(10))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Spend("ok", 1); err != nil {
				t.Fatal(err)
			}
			before := l.Status()
			if before.Poisoned != "" || before.LastFsync.IsZero() {
				t.Fatalf("healthy Status = %+v, want no poison and a LastFsync", before)
			}
			injected := errors.New("injected fsync failure")
			stubSyncFile(t, func(*os.File) error { return injected })
			if err := b.Spend("fails", 1); !errors.Is(err, injected) {
				t.Fatalf("Spend over a failing fsync = %v, want the injected error", err)
			}
			st := l.Status()
			if !strings.Contains(st.Poisoned, injected.Error()) {
				t.Errorf("Status.Poisoned = %q, want it to name the fsync failure", st.Poisoned)
			}
			if !st.LastFsync.Equal(before.LastFsync) {
				t.Errorf("LastFsync moved %v → %v on a failed fsync", before.LastFsync, st.LastFsync)
			}
			if policy == SyncBatched {
				syncFile = (*os.File).Sync // the latch, not the disk, must refuse now
				if err := b.RecordCacheHit("after"); !errors.Is(err, injected) {
					t.Errorf("ack after a latched fsync failure = %v, want the latched error", err)
				}
			}
		})
	}
}
