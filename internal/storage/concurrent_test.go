package storage

// Concurrency tests for the stores: many readers assembling slot chains
// in parallel, against both the in-memory store and a FileStore whose
// pool is far smaller than the working set, so most slots are read from
// the file while the readers share the shard latches. The TestConcurrent*
// prefix is what `make verify` runs under the race detector.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"bvtree/internal/page"
)

func fillPattern(i, size int) []byte {
	blob := make([]byte, size)
	for j := range blob {
		blob[j] = byte(i*31 + j)
	}
	return blob
}

func TestConcurrentStoreReads(t *testing.T) {
	const nodes = 64
	cases := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		{"file", func(t *testing.T) Store {
			// 8 pool slots for a working set of hundreds of slots: most
			// chain walks mix resident frames and slots read from the file.
			fs, err := CreateFileStore(filepath.Join(t.TempDir(), "c.bv"), FileStoreOptions{
				SlotSize:  128,
				PoolSlots: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.open(t)
			defer st.Close()
			ids := make([]page.ID, nodes)
			want := make([][]byte, nodes)
			for i := range ids {
				id, err := st.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
				// Sizes from sub-slot to multi-slot chains.
				want[i] = fillPattern(i, 40+i*17)
				if err := st.WriteNode(id, want[i]); err != nil {
					t.Fatal(err)
				}
			}

			var (
				wg       sync.WaitGroup
				errMu    sync.Mutex
				firstErr error
			)
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 30; round++ {
						i := (g*13 + round*7) % nodes
						got, err := st.ReadNode(ids[i])
						if err == nil && !bytes.Equal(got, want[i]) {
							err = fmt.Errorf("node %d: got %d bytes, want %d", i, len(got), len(want[i]))
						}
						if err != nil {
							errMu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							errMu.Unlock()
							return
						}
						_ = st.Stats()
					}
				}(g)
			}
			wg.Wait()
			if firstErr != nil {
				t.Fatal(firstErr)
			}
			st2 := st.Stats()
			if st2.NodeReads < 6*30 {
				t.Fatalf("NodeReads=%d, want at least %d", st2.NodeReads, 6*30)
			}
		})
	}
}

// TestConcurrentReadsWithEvictionWriteback interleaves parallel readers
// with a dirty pool: WriteNode leaves dirty frames, later writes' evictions
// must write them back (not drop them), and readers must see either the
// resident dirty frame or its written-back image.
func TestConcurrentReadsWithEvictionWriteback(t *testing.T) {
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "wb.bv"), FileStoreOptions{
		SlotSize:  128,
		PoolSlots: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	const nodes = 32
	ids := make([]page.ID, nodes)
	want := make([][]byte, nodes)
	for i := range ids {
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for round := 0; round < 4; round++ {
		// Rewrite every node (each admission evicts and writes back a
		// dirty frame), then storm it with parallel readers.
		for i := range ids {
			want[i] = fillPattern(round*nodes+i, 30+((round*nodes+i)*13)%400)
			if err := fs.WriteNode(ids[i], want[i]); err != nil {
				t.Fatal(err)
			}
		}
		var (
			wg       sync.WaitGroup
			errMu    sync.Mutex
			firstErr error
		)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < nodes; i++ {
					idx := (i + g*5) % nodes
					got, err := fs.ReadNode(ids[idx])
					if err == nil && !bytes.Equal(got, want[idx]) {
						err = fmt.Errorf("round %d node %d: content mismatch", i, idx)
					}
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if firstErr != nil {
			t.Fatal(firstErr)
		}
	}
}
