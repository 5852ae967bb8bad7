package bvtree

// Differential and stress coverage for the range traversal behind
// RangeQuery, Scan, PartialMatch and Count. Every backend's results are
// compared against a linear scan of the inserted points. TestRange* is
// part of the `make verify` race smoke together with TestConcurrent*, so
// the visitor single-threading claim is checked by the race detector,
// not just by assertion: the visitors mutate plain ints.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

// rangeBackends builds one tree per backend flavour, loads it with pts
// (payload = index), and hands each to fn.
func rangeBackends(t *testing.T, pts []geometry.Point, opt Options, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	load := func(t *testing.T, tr *Tree) *Tree {
		t.Helper()
		for i, p := range pts {
			if err := tr.Insert(p, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	t.Run("mem", func(t *testing.T) {
		tr, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("paged-mem", func(t *testing.T) {
		tr, err := NewPaged(storage.NewMemStore(), opt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("paged-file", func(t *testing.T) {
		st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "p.bv"), storage.FileStoreOptions{SlotSize: 512, PoolSlots: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		popt := opt
		popt.CacheNodes = 64 // small: most reads miss the decoded-node cache
		tr, err := NewPaged(st, popt)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, load(t, tr))
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		st, err := storage.CreateFileStore(filepath.Join(dir, "d.bv"), storage.FileStoreOptions{SlotSize: 512, PinDirty: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		d, err := NewDurable(st, filepath.Join(dir, "d.wal"), opt)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, load(t, d.Tree))
	})
}

// collectRange drains one query into its sorted payloads. Payloads are
// unique per point here, so the payloads identify the result multiset
// exactly.
func collectRange(t *testing.T, run func(Visitor) error) []uint64 {
	t.Helper()
	var got []uint64
	if err := run(func(_ geometry.Point, payload uint64) bool {
		got = append(got, payload)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// oracleRange is the linear-scan answer: the sorted indexes of the
// points inside rect.
func oracleRange(pts []geometry.Point, rect geometry.Rect) []uint64 {
	var want []uint64
	for i, p := range pts {
		if rect.Contains(p) {
			want = append(want, uint64(i))
		}
	}
	return want
}

func randRect(rng *rand.Rand, dims int) geometry.Rect {
	r := geometry.UniverseRect(dims)
	for d := 0; d < dims; d++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		switch rng.Intn(4) {
		case 0: // large window: exercises full containment
			r.Min[d], r.Max[d] = a/8, ^uint64(0)-(^uint64(0)-b)/8
		case 1: // point-like: exercises guard-heavy narrow descents
			r.Min[d], r.Max[d] = a, a
		default:
			r.Min[d], r.Max[d] = a, b
		}
		if r.Min[d] > r.Max[d] {
			r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
		}
	}
	return r
}

// TestRangeDifferential: on every backend, for a pile of random
// rectangles, RangeQuery and PartialMatch return exactly the multiset of
// the linear-scan oracle, and Scan delivers every item once.
func TestRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 4000
	pts := make([]geometry.Point, n)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = clusteredPoint(rng, 2)
		} else {
			pts[i] = randPoint(rng, 2)
		}
	}
	opt := Options{Dims: 2, DataCapacity: 8, Fanout: 8}
	rangeBackends(t, pts, opt, func(t *testing.T, tr *Tree) {
		for trial := 0; trial < 25; trial++ {
			rect := randRect(rng, 2)
			got := collectRange(t, func(v Visitor) error { return tr.RangeQuery(rect, v) })
			if want := oracleRange(pts, rect); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: RangeQuery diverged from oracle: %d vs %d hits", trial, len(got), len(want))
			}
		}
		// PartialMatch on one specified dimension, at a stored value so
		// the answer is never empty.
		for trial := 0; trial < 10; trial++ {
			d := trial % 2
			values := pts[rng.Intn(n)].Clone()
			specified := []bool{d == 0, d == 1}
			rect := geometry.UniverseRect(2)
			rect.Min[d], rect.Max[d] = values[d], values[d]
			got := collectRange(t, func(v Visitor) error { return tr.PartialMatch(values, specified, v) })
			if want := oracleRange(pts, rect); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: PartialMatch diverged from oracle: %d vs %d hits", trial, len(got), len(want))
			}
		}
		full := collectRange(t, tr.Scan)
		if len(full) != n {
			t.Fatalf("Scan visited %d of %d", len(full), n)
		}
		for i, p := range full {
			if p != uint64(i) {
				t.Fatalf("Scan payload %d at position %d", p, i)
			}
		}
	})
}

// TestRangeEarlyStop: a visitor returning false stops the query with a
// nil error and no further visits.
func TestRangeEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := make([]geometry.Point, 6000)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		for _, limit := range []int{1, 10, 500} {
			visits := 0
			stopped := false
			err := tr.RangeQuery(geometry.UniverseRect(2), func(geometry.Point, uint64) bool {
				if stopped {
					t.Fatal("visit after the visitor returned false")
				}
				visits++
				if visits >= limit {
					stopped = true
					return false
				}
				return true
			})
			if err != nil {
				t.Fatalf("limit %d: early stop returned %v", limit, err)
			}
			if visits != limit {
				t.Fatalf("limit %d: visited %d", limit, visits)
			}
		}
	})
}

// TestRangeErrorCancels: the first read error surfaces to the caller of
// RangeQuery and of Count and ends the traversal, instead of hanging or
// panicking.
func TestRangeErrorCancels(t *testing.T) {
	inner := storage.NewMemStore()
	fs := fault.NewStore(inner, 0)
	tr, err := NewPaged(fs, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 4000; i++ {
		if err := tr.Insert(randPoint(rng, 2), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the decoded cache so the query must hit the (armed) store.
	tr.endOp()
	for i := range tr.paged.shards {
		sh := &tr.paged.shards[i]
		sh.mu.Lock()
		for id := range sh.nodes {
			delete(sh.nodes, id)
			tr.paged.size.Add(-1)
		}
		sh.mu.Unlock()
	}
	fs.Arm()
	err = tr.RangeQuery(geometry.UniverseRect(2), func(geometry.Point, uint64) bool { return true })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("range query over tripped store returned %v", err)
	}
	if _, err := tr.Count(geometry.UniverseRect(2)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("count over tripped store returned %v", err)
	}
}

// TestRangeCountMatches: Count's count-only traversal agrees with the
// linear-scan oracle and with counting through RangeQuery on random
// workloads and rectangles.
func TestRangeCountMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts := make([]geometry.Point, 5000)
	for i := range pts {
		pts[i] = clusteredPoint(rng, 2)
	}
	rangeBackends(t, pts, Options{Dims: 2, DataCapacity: 8, Fanout: 8}, func(t *testing.T, tr *Tree) {
		for trial := 0; trial < 30; trial++ {
			rect := randRect(rng, 2)
			want := len(oracleRange(pts, rect))
			visited := 0
			if err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool { visited++; return true }); err != nil {
				t.Fatal(err)
			}
			got, err := tr.Count(rect)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || visited != want {
				t.Fatalf("trial %d: Count %d, RangeQuery %d, oracle %d", trial, got, visited, want)
			}
		}
		if c, err := tr.Count(geometry.UniverseRect(2)); err != nil || c != len(pts) {
			t.Fatalf("universe count %d err %v", c, err)
		}
	})
}

// TestConcurrentRangeQueries joins concurrent range queries and counts
// with concurrent inserts and deletes; the TestConcurrent* prefix puts it
// under the race detector in `make verify`. Writers churn the second half of the points, so readers
// assert only over the stable first half.
func TestConcurrentRangeQueries(t *testing.T) {
	st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "cr.bv"), storage.FileStoreOptions{SlotSize: 512, PoolSlots: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := NewPaged(st, Options{Dims: 2, DataCapacity: 8, Fanout: 8, CacheNodes: 48})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(75))
	const stable = 2000
	pts := make([]geometry.Point, stable)
	for i := range pts {
		pts[i] = randPoint(rng, 2)
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Writers: churn points with payloads ≥ stable.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(80 + w)))
			for i := 0; i < 400 && !stop.Load(); i++ {
				p := randPoint(wrng, 2)
				payload := uint64(stable + w*1000 + i)
				if err := tr.Insert(p, payload); err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if _, err := tr.Delete(p, payload); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Readers: full scans and counts; stable points must always be
	// present exactly once.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30 && !stop.Load(); i++ {
				seen := make(map[uint64]int)
				err := tr.RangeQuery(geometry.UniverseRect(2), func(_ geometry.Point, payload uint64) bool {
					seen[payload]++ // plain map write: delivery must be single-threaded
					return true
				})
				if err != nil {
					errs <- err
					return
				}
				for s := 0; s < stable; s++ {
					if seen[uint64(s)] != 1 {
						errs <- fmt.Errorf("reader %d: stable payload %d seen %d times", r, s, seen[uint64(s)])
						return
					}
				}
				if n, err := tr.Count(geometry.UniverseRect(2)); err != nil || n < stable {
					errs <- fmt.Errorf("reader %d: universe count %d err %v", r, n, err)
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errs:
		stop.Store(true)
		<-done
		t.Fatal(err)
	case <-done:
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
}
