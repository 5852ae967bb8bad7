package storage

// Read-path tests for the FileStore: demand reads serve resident frames
// and read everything else straight from the file without admitting it,
// a resident dirty frame always wins over the disk image, and pool
// admission never walks past the dirty frames PinDirty pins.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"bvtree/internal/page"
)

// residentFrames counts the frames in the pool.
func residentFrames(fs *FileStore) int {
	n := 0
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// coldStore writes n single-slot nodes, closes the store and reopens it
// with an empty pool.
func coldStore(t *testing.T, n int, opts FileStoreOptions) (*FileStore, []page.ID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cold.db")
	fs, err := CreateFileStore(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]page.ID, n)
	for i := range ids {
		if ids[i], err = fs.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteNode(ids[i], []byte(fmt.Sprintf("node-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if fs, err = OpenFileStore(path, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs, ids
}

// TestDemandReadDoesNotAdmit pins the read-cache rule: a ReadNode of a
// non-resident slot costs one physical read and leaves the pool as it
// was, every time it is repeated.
func TestDemandReadDoesNotAdmit(t *testing.T) {
	fs, ids := coldStore(t, 8, FileStoreOptions{SlotSize: 256, PoolSlots: 64})
	for round := 0; round < 2; round++ {
		before, resident := fs.Stats(), residentFrames(fs)
		blob, err := fs.ReadNode(ids[3])
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != "node-3" {
			t.Fatalf("read %q", blob)
		}
		d := fs.Stats().Sub(before)
		if d.SlotReads != 1 || d.CacheMisses != 1 || d.CacheHits != 0 {
			t.Fatalf("round %d: %d slot reads, %d misses, %d hits; want 1, 1, 0", round, d.SlotReads, d.CacheMisses, d.CacheHits)
		}
		if got := residentFrames(fs); got != resident {
			t.Fatalf("round %d: demand read changed residency %d -> %d", round, resident, got)
		}
	}
}

// TestPinnedDirtyFrameWins rewrites a synced node under PinDirty, then
// churns the pool with allocations and cold reads: every read path must
// return the new image from the pinned frame, never the stale one still
// on disk.
func TestPinnedDirtyFrameWins(t *testing.T) {
	fs, ids := coldStore(t, 64, FileStoreOptions{SlotSize: 256, PoolSlots: 16, PinDirty: true})
	want := bytes.Repeat([]byte("fresh"), 60) // chains into a second slot
	if err := fs.WriteNode(ids[5], want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := fs.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if _, err := fs.ReadNode(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fs.ReadNode(ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadNode returned the stale image %q", got)
	}
	batch, err := fs.ReadNodes(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch[5], want) {
		t.Fatalf("ReadNodes returned the stale image %q", batch[5])
	}
}

// TestAdmissionSkipsPinnedFrames pins O(1) admission under PinDirty:
// however many dirty frames are pinned since the last Sync, admitting a
// frame inspects at most the LRU victims it evicts — never the pinned
// frames. Sync then hands the cleaned frames back within capacity.
func TestAdmissionSkipsPinnedFrames(t *testing.T) {
	for _, dirty := range []int{64, 2048} {
		fs, ids := coldStore(t, 64, FileStoreOptions{SlotSize: 256, PoolSlots: 16, PinDirty: true})
		for i := 0; i < dirty; i++ {
			if _, err := fs.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		// Each Alloc and each warmed slot is one admission into a shard
		// holding pinned frames far beyond its capacity.
		scans := fs.victimScans.Load()
		for i := 0; i < 100; i++ {
			if _, err := fs.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		fs.mu.RLock()
		warmed, err := fs.warmSlots(sortedHeadSlots(ids))
		fs.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		admissions := uint64(100 + warmed)
		if got := fs.victimScans.Load() - scans; got > admissions {
			t.Fatalf("%d pinned frames: %d admissions inspected %d victims", dirty, admissions, got)
		}
		// Sync cleans the pinned frames and trims the pool to capacity.
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := residentFrames(fs); got > 16 {
			t.Fatalf("%d frames resident after Sync, capacity 16", got)
		}
	}
}

// TestConcurrentDemandReadsAndPrefetch races demand reads against
// Prefetch admissions and batched reads over a PinDirty store holding
// both pinned dirty frames and clean on-disk slots, checking every blob:
// the race detector checks the latching, the contents check that a
// resident frame and the disk image never mix.
func TestConcurrentDemandReadsAndPrefetch(t *testing.T) {
	fs, ids := coldStore(t, 48, FileStoreOptions{SlotSize: 128, PoolSlots: 16, PinDirty: true})
	want := make([][]byte, len(ids))
	for i := range ids {
		want[i] = []byte(fmt.Sprintf("node-%d", i))
		if i%3 == 0 {
			want[i] = fillPattern(i, 40+i*9) // dirty, up to three slots
			if err := fs.WriteNode(ids[i], want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 150; round++ {
				switch g % 3 {
				case 0:
					i := rng.Intn(len(ids))
					got, err := fs.ReadNode(ids[i])
					if err == nil && !bytes.Equal(got, want[i]) {
						err = fmt.Errorf("ReadNode %d: wrong blob", i)
					}
					if err != nil {
						errs <- err
						return
					}
				case 1:
					lo := rng.Intn(len(ids))
					got, err := fs.ReadNodes(ids[lo:])
					for k := 0; err == nil && k < len(got); k++ {
						if !bytes.Equal(got[k], want[lo+k]) {
							err = fmt.Errorf("ReadNodes %d: wrong blob", lo+k)
						}
					}
					if err != nil {
						errs <- err
						return
					}
				default:
					fs.Prefetch(ids[rng.Intn(len(ids)):])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
