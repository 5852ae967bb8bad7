package bvtree

// Differential battery for the columnar node layout: a tree running the
// batched column predicates must be observably identical — encoded
// pages and query answers both — to one forced onto the pre-columnar
// scalar scans (Options.ScalarNodeScan), across backends and workload
// shapes. The TestColumnarConcurrent smoke runs under the race detector
// in `make verify`.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/page"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// qtree is the query surface shared by *Tree and *DurableTree.
type qtree interface {
	Insert(geometry.Point, uint64) error
	Delete(geometry.Point, uint64) (bool, error)
	Lookup(geometry.Point) ([]uint64, error)
	Len() int
	Scan(Visitor) error
	RangeQuery(geometry.Rect, Visitor) error
	Count(geometry.Rect) (int, error)
	Nearest(geometry.Point, int) ([]Neighbor, error)
	Validate(bool) error
}

// columnarPair builds two identically-configured trees on the named
// backend, one columnar and one with ScalarNodeScan set. The stores are
// returned when the backend has them (for byte-identity sweeps).
func columnarPair(t *testing.T, backend string, dims int) (cols, scalar qtree, colStore, sclStore *storage.MemStore) {
	t.Helper()
	base := Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 32}
	scalarOpt := base
	scalarOpt.ScalarNodeScan = true
	switch backend {
	case "mem":
		a, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		return a, b, nil, nil
	case "paged":
		colStore, sclStore = storage.NewMemStore(), storage.NewMemStore()
		a, err := NewPaged(colStore, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewPaged(sclStore, scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		return a, b, colStore, sclStore
	case "durable":
		colStore, sclStore = storage.NewMemStore(), storage.NewMemStore()
		dir := t.TempDir()
		a, err := NewDurable(colStore, filepath.Join(dir, "c.wal"), base)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := NewDurable(sclStore, filepath.Join(dir, "s.wal"), scalarOpt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return a, b, colStore, sclStore
	}
	t.Fatalf("unknown backend %q", backend)
	return nil, nil, nil, nil
}

// collect drains a query into a canonically-sorted multiset.
func collect(t *testing.T, run func(Visitor) error) []string {
	t.Helper()
	var out []string
	if err := run(func(p geometry.Point, payload uint64) bool {
		out = append(out, fmt.Sprintf("%v/%d", p, payload))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func equalMultiset(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: columnar returned %d items, scalar %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs: %s vs %s", what, i, a[i], b[i])
		}
	}
}

// columnarWorkload returns the insert stream for one named shape.
func columnarWorkload(t *testing.T, kind string, dims, n int) []geometry.Point {
	t.Helper()
	switch kind {
	case "burst":
		bursts, err := workload.Bursts(workload.Nested, dims, n, 48, 11)
		if err != nil {
			t.Fatal(err)
		}
		var pts []geometry.Point
		for _, b := range bursts {
			pts = append(pts, b...)
		}
		return pts
	default:
		pts, err := workload.Generate(workload.Kind(kind), dims, n, 23)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
}

// TestColumnarDifferential drives identical insert/delete streams
// through a columnar and a scalar-scan tree on every backend and checks
// that every read answer is multiset-identical. (Byte-identity of the
// stores is checked by TestColumnarEncodedPageIdentity.)
func TestColumnarDifferential(t *testing.T) {
	const dims, n = 2, 2500
	for _, backend := range []string{"mem", "paged", "durable"} {
		for _, kind := range []string{"uniform", "clustered", "burst"} {
			t.Run(backend+"/"+kind, func(t *testing.T) {
				pts := columnarWorkload(t, kind, dims, n)
				cols, scalar, _, _ := columnarPair(t, backend, dims)

				rng := rand.New(rand.NewSource(77))
				for i, p := range pts {
					for _, tr := range []qtree{cols, scalar} {
						if err := tr.Insert(p, uint64(i)); err != nil {
							t.Fatal(err)
						}
					}
					// Interleaved deletes keep removal paths (mirror
					// staleness + rebuild) in the differential too.
					if i%7 == 3 {
						j := rng.Intn(i + 1)
						for _, tr := range []qtree{cols, scalar} {
							if _, err := tr.Delete(pts[j], uint64(j)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if cols.Len() != scalar.Len() {
					t.Fatalf("Len: columnar %d, scalar %d", cols.Len(), scalar.Len())
				}
				if err := cols.Validate(true); err != nil {
					t.Fatalf("columnar invariants: %v", err)
				}
				if err := scalar.Validate(true); err != nil {
					t.Fatalf("scalar invariants: %v", err)
				}

				equalMultiset(t, "Scan", collect(t, cols.Scan), collect(t, scalar.Scan))
				for qi, rect := range workload.QueryRects(dims, 12, 0.1, 31) {
					rect := rect
					a := collect(t, func(v Visitor) error { return cols.RangeQuery(rect, v) })
					b := collect(t, func(v Visitor) error { return scalar.RangeQuery(rect, v) })
					equalMultiset(t, fmt.Sprintf("RangeQuery %d", qi), a, b)
					cnt, err := cols.Count(rect)
					if err != nil {
						t.Fatal(err)
					}
					if cnt != len(a) {
						t.Fatalf("Count %d: %d, RangeQuery returned %d", qi, cnt, len(a))
					}
					scnt, err := scalar.Count(rect)
					if err != nil {
						t.Fatal(err)
					}
					if scnt != len(a) {
						t.Fatalf("scalar Count %d: %d, want %d", qi, scnt, len(a))
					}
				}
				for qi := 0; qi < 40; qi++ {
					q := pts[rng.Intn(len(pts))]
					la, err := cols.Lookup(q)
					if err != nil {
						t.Fatal(err)
					}
					lb, err := scalar.Lookup(q)
					if err != nil {
						t.Fatal(err)
					}
					sort.Slice(la, func(i, j int) bool { return la[i] < la[j] })
					sort.Slice(lb, func(i, j int) bool { return lb[i] < lb[j] })
					if len(la) != len(lb) {
						t.Fatalf("Lookup %d: %d vs %d payloads", qi, len(la), len(lb))
					}
					for i := range la {
						if la[i] != lb[i] {
							t.Fatalf("Lookup %d payload %d: %d vs %d", qi, i, la[i], lb[i])
						}
					}
				}
				for qi := 0; qi < 10; qi++ {
					q := pts[rng.Intn(len(pts))]
					a, err := cols.Nearest(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					b, err := scalar.Nearest(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if len(a) != len(b) {
						t.Fatalf("Nearest %d: %d vs %d results", qi, len(a), len(b))
					}
					for i := range a {
						if a[i].Dist != b[i].Dist {
							t.Fatalf("Nearest %d result %d: dist %v vs %v", qi, i, a[i].Dist, b[i].Dist)
						}
					}
				}

			})
		}
	}
}

// TestColumnarEncodedPageIdentity builds a columnar and a scalar-scan
// tree from the same insert/delete stream on the paged backend and
// requires every stored page to be byte-identical: the columnar mirror
// must be invisible in the wire format. (It also holds the tree to a
// deterministic build: ties in the index split choice once went by map
// order, so two builds of one stream could differ.)
func TestColumnarEncodedPageIdentity(t *testing.T) {
	const dims, n = 2, 2500
	for _, kind := range []string{"uniform", "clustered", "burst"} {
		t.Run(kind, func(t *testing.T) {
			pts := columnarWorkload(t, kind, dims, n)
			cols, scalar, colStore, sclStore := columnarPair(t, "paged", dims)
			rng := rand.New(rand.NewSource(77))
			for i, p := range pts {
				for _, tr := range []qtree{cols, scalar} {
					if err := tr.Insert(p, uint64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if i%7 == 3 {
					j := rng.Intn(i + 1)
					for _, tr := range []qtree{cols, scalar} {
						if _, err := tr.Delete(pts[j], uint64(j)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			compareStores(t, colStore, sclStore)
		})
	}
}

// compareStores sweeps every page ID either store has allocated and
// requires identical bytes (or identical absence): the columnar mirror
// must be invisible in the wire format.
func compareStores(t *testing.T, a, b *storage.MemStore) {
	t.Helper()
	hi := a.Stats().Allocs
	if n := b.Stats().Allocs; n > hi {
		hi = n
	}
	for id := page.ID(1); id <= page.ID(hi); id++ {
		ba, errA := a.ReadNode(id)
		bb, errB := b.ReadNode(id)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("page %d: allocated in one store only (%v vs %v)", id, errA, errB)
		}
		if errA != nil {
			continue
		}
		if len(ba) != len(bb) {
			t.Fatalf("page %d: %d bytes vs %d", id, len(ba), len(bb))
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("page %d differs at byte %d", id, i)
			}
		}
	}
}

// TestColumnarConcurrent is the race-detector smoke for the columnar
// read path: concurrent lookups, range queries and nearest searches
// against a paged tree while a writer keeps appending (exercising the
// gap appends and mirror rebuilds under the tree locks).
func TestColumnarConcurrent(t *testing.T) {
	const dims, n = 2, 1200
	pts, err := workload.Generate(workload.Uniform, dims, 2*n, 51)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPaged(storage.NewMemStore(), Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Insert(pts[i], uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := n; i < 2*n; i++ {
			if err := tr.Insert(pts[i], uint64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rects := workload.QueryRects(dims, 8, 0.1, uint64(g+1))
			for r := 0; r < 20; r++ {
				if _, err := tr.Lookup(pts[(g*37+r)%n]); err != nil {
					t.Error(err)
					return
				}
				rect := rects[r%len(rects)]
				if err := tr.RangeQuery(rect, func(geometry.Point, uint64) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.Nearest(pts[(g*53+r)%n], 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
}
