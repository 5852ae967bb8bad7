package bvtree

// Crash torture for the bulk loader. The sweep crashes inside the packed
// build's page materialisation and index graft; recovery replays the
// batch's records individually onto the checkpointed state, so the
// rebuilt tree must hold the same items even though the build it
// interrupted never finished.

import (
	"errors"
	"path/filepath"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// bulkCrashEnv is a durable tree over fault-injecting store and WAL
// filesystems.
type bulkCrashEnv struct {
	dir            string
	storeFS, walFS *fault.FS
	st             *storage.FileStore
	d              *DurableTree
}

func newBulkCrashEnv(t *testing.T) *bulkCrashEnv {
	t.Helper()
	e := &bulkCrashEnv{
		dir:     t.TempDir(),
		storeFS: fault.NewFS(vfs.OS{}, fault.Plan{}),
		walFS:   fault.NewFS(vfs.OS{}, fault.Plan{}),
	}
	var err error
	e.st, err = storage.CreateFileStore(filepath.Join(e.dir, "t.db"),
		storage.FileStoreOptions{SlotSize: 256, PoolSlots: 64, PinDirty: true, FS: e.storeFS})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenFS(e.walFS, filepath.Join(e.dir, "t.wal"))
	if err != nil {
		t.Fatal(err)
	}
	e.d, err = NewDurableLog(e.st, l, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// reopen abandons the crashed handles and recovers from the real
// filesystem, asserting structural invariants and clean MVCC state.
func (e *bulkCrashEnv) reopen(t *testing.T) *DurableTree {
	t.Helper()
	e.storeFS.CloseAll()
	e.walFS.CloseAll()
	st, err := storage.OpenFileStore(filepath.Join(e.dir, "t.db"), storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	d, err := OpenDurableOpts(st, filepath.Join(e.dir, "t.wal"), 0, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen tree: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.Validate(true); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	if err := d.CheckSnapshots(); err != nil {
		t.Fatalf("mvcc state after recovery: %v", err)
	}
	return d
}

// TestBulkLoadCrashSweep arms a store fault at every offset of a
// durable BulkLoad on an empty tree, landing crashes inside the packed
// build's page materialisation and the index graft. The batch's records
// hit the log before the build starts, so recovery replays them all:
// the rebuilt tree must hold exactly the loaded items, page layout
// notwithstanding.
func TestBulkLoadCrashSweep(t *testing.T) {
	const n = 120
	pts := make([]geometry.Point, n)
	pays := make([]uint64, n)
	for i := range pts {
		pts[i] = geometry.Point{uint64(i*2654435761 + 17), uint64(i*40503+5) << 20}
		pays[i] = uint64(i)
	}
	// Sweep every store-op offset the build performs; the sweep ends at
	// the first offset past the build (the store is pooled and
	// pin-dirty, so the build's filesystem op count is modest).
	const sweep = 64
	covered := 0
	for k := 1; k <= sweep; k++ {
		e := newBulkCrashEnv(t)
		e.storeFS.SetPlan(fault.Plan{InjectAt: e.storeFS.Ops() + k, Mode: fault.ModeError})
		err := e.d.BulkLoad(pts, pays)
		if err == nil {
			if e.storeFS.Injected() {
				t.Fatalf("k=%d: store fault fired but BulkLoad reported success", k)
			}
			break // offset past the whole build
		}
		if !errors.Is(err, fault.ErrInjected) && !errors.Is(err, storage.ErrPoisoned) {
			t.Fatalf("k=%d: BulkLoad err = %v, want injected or poisoned", k, err)
		}
		covered++
		d := e.reopen(t)
		if d.Len() != n {
			t.Fatalf("k=%d: recovered Len=%d, want %d (all records were logged before the build)", k, d.Len(), n)
		}
		for i := range pts {
			found, err := contains(d.Tree, pts[i], pays[i])
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("k=%d: bulk item %d lost across graft crash", k, i)
			}
		}
	}
	if covered < 10 {
		t.Fatalf("sweep crashed only %d offsets inside the build; too few to call it a sweep", covered)
	}
	t.Logf("swept %d crash points inside the packed build", covered)
}
