package bvtree

// Differential battery: random interleaved insert/delete/query/nearest
// programs run in lockstep against a tree and a linear-scan oracle,
// across the in-memory, paged and durable backends. Any divergence — a
// lookup missing an insert, a count off by one, a nearest search losing
// a candidate — fails with the op index that exposed it.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/storage"
)

// diffAPI is the surface the battery drives; *Tree and *DurableTree both
// provide it.
type diffAPI interface {
	Insert(p geometry.Point, payload uint64) error
	Delete(p geometry.Point, payload uint64) (bool, error)
	Lookup(p geometry.Point) ([]uint64, error)
	Count(rect geometry.Rect) (int, error)
	RangeQuery(rect geometry.Rect, visit Visitor) error
	Nearest(p geometry.Point, k int) ([]Neighbor, error)
	Len() int
}

// oracleItem mirrors one stored item in the linear-scan oracle.
type oracleItem struct {
	p       geometry.Point
	payload uint64
}

func oracleLookup(items []oracleItem, p geometry.Point) []uint64 {
	var out []uint64
	for _, it := range items {
		if it.p.Equal(p) {
			out = append(out, it.payload)
		}
	}
	return out
}

func oracleDelete(items []oracleItem, p geometry.Point, payload uint64) ([]oracleItem, bool) {
	for i, it := range items {
		if it.payload == payload && it.p.Equal(p) {
			return append(items[:i], items[i+1:]...), true
		}
	}
	return items, false
}

func oracleCount(items []oracleItem, rect geometry.Rect) int {
	n := 0
	for _, it := range items {
		if rect.Contains(it.p) {
			n++
		}
	}
	return n
}

func oracleNearestDists(items []oracleItem, p geometry.Point, k int) []float64 {
	ds := make([]float64, len(items))
	for i, it := range items {
		ds[i] = pointDist(p, it.p)
	}
	sort.Float64s(ds)
	if len(ds) > k {
		ds = ds[:k]
	}
	return ds
}

func sortedU64(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func u64Equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collectRangeKeys gathers (point,payload) pairs of a range query as
// sorted payload-tagged keys, so multiset comparison is order-independent.
func collectRangeKeys(api diffAPI, rect geometry.Rect) ([]string, error) {
	var out []string
	err := api.RangeQuery(rect, func(p geometry.Point, payload uint64) bool {
		out = append(out, fmt.Sprintf("%v/%d", p, payload))
		return true
	})
	sort.Strings(out)
	return out, err
}

func oracleRangeKeys(items []oracleItem, rect geometry.Rect) []string {
	var out []string
	for _, it := range items {
		if rect.Contains(it.p) {
			out = append(out, fmt.Sprintf("%v/%d", it.p, it.payload))
		}
	}
	sort.Strings(out)
	return out
}

// poolPoint draws from a small coordinate pool so the program produces
// duplicate points, deletes of re-inserted points, and deletes of absent
// items.
func poolPoint(rng *rand.Rand, pool []geometry.Point) geometry.Point {
	return pool[rng.Intn(len(pool))]
}

func poolRect(rng *rand.Rand, pool []geometry.Point) geometry.Rect {
	a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
	r := geometry.Rect{Min: a.Clone(), Max: b.Clone()}
	for d := range r.Min {
		if r.Min[d] > r.Max[d] {
			r.Min[d], r.Max[d] = r.Max[d], r.Min[d]
		}
	}
	return r
}

// runDifferential drives one random program against tree and the oracle
// in lockstep.
func runDifferential(t *testing.T, tree diffAPI, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]geometry.Point, 48)
	for i := range pool {
		pool[i] = randPoint(rng, 2)
	}
	var oracle []oracleItem
	nextPayload := uint64(1)

	check := func(i int, what string, ok bool, detail string) {
		if !ok {
			t.Fatalf("op %d: %s diverged: %s", i, what, detail)
		}
	}
	type validator interface{ Validate(full bool) error }
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 45: // insert
			p := poolPoint(rng, pool)
			pay := nextPayload
			nextPayload++
			if err := tree.Insert(p, pay); err != nil {
				t.Fatalf("op %d: insert: %v", i, err)
			}
			oracle = append(oracle, oracleItem{p: p.Clone(), payload: pay})
		case r < 70: // delete (sometimes of an absent item)
			p := poolPoint(rng, pool)
			var pay uint64
			if len(oracle) > 0 && rng.Intn(4) > 0 {
				pick := oracle[rng.Intn(len(oracle))]
				p, pay = pick.p, pick.payload
			} else {
				pay = uint64(rng.Intn(int(nextPayload)) + 1)
			}
			tok, err := tree.Delete(p, pay)
			if err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			var ook bool
			oracle, ook = oracleDelete(oracle, p, pay)
			check(i, "delete found-flag", tok == ook, fmt.Sprintf("tree=%v oracle=%v", tok, ook))
		case r < 80: // lookup
			p := poolPoint(rng, pool)
			tg, err := tree.Lookup(p)
			if err != nil {
				t.Fatalf("op %d: lookup: %v", i, err)
			}
			og := oracleLookup(oracle, p)
			check(i, "lookup", u64Equal(sortedU64(tg), sortedU64(og)),
				fmt.Sprintf("tree=%v oracle=%v", tg, og))
		case r < 88: // range + count
			rect := poolRect(rng, pool)
			tk, err := collectRangeKeys(tree, rect)
			if err != nil {
				t.Fatalf("op %d: range: %v", i, err)
			}
			ok := oracleRangeKeys(oracle, rect)
			check(i, "range", fmt.Sprint(tk) == fmt.Sprint(ok),
				fmt.Sprintf("tree=%d oracle=%d items", len(tk), len(ok)))
			tc, err := tree.Count(rect)
			if err != nil {
				t.Fatalf("op %d: count: %v", i, err)
			}
			check(i, "count", tc == oracleCount(oracle, rect),
				fmt.Sprintf("tree=%d oracle=%d", tc, oracleCount(oracle, rect)))
		case r < 96: // nearest
			p := poolPoint(rng, pool)
			k := 1 + rng.Intn(6)
			tn, err := tree.Nearest(p, k)
			if err != nil {
				t.Fatalf("op %d: nearest: %v", i, err)
			}
			od := oracleNearestDists(oracle, p, k)
			td := make([]float64, len(tn))
			for j := range tn {
				td[j] = tn[j].Dist
			}
			same := len(td) == len(od)
			for j := 0; same && j < len(td); j++ {
				same = td[j] == od[j]
			}
			check(i, "nearest", same, fmt.Sprintf("tree=%v oracle=%v", td, od))
		default: // mid-program structural check
			if v, ok := tree.(validator); ok {
				if err := v.Validate(true); err != nil {
					t.Fatalf("op %d: invariants: %v", i, err)
				}
			}
		}
		if tree.Len() != len(oracle) {
			t.Fatalf("op %d: Len=%d, oracle=%d", i, tree.Len(), len(oracle))
		}
	}
	// Full structural check and a last full-content sweep.
	if v, ok := tree.(validator); ok {
		if err := v.Validate(true); err != nil {
			t.Fatalf("invariants after program: %v", err)
		}
	}
	uni := geometry.UniverseRect(2)
	tk, err := collectRangeKeys(tree, uni)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tk) != fmt.Sprint(oracleRangeKeys(oracle, uni)) {
		t.Fatalf("final content diverges: %d items vs oracle %d", len(tk), len(oracle))
	}
}

// TestDifferentialMem runs the battery on in-memory trees.
func TestDifferentialMem(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			runDifferential(t, tr, seed, 700)
		})
	}
}

// TestDifferentialPaged runs the battery on file-backed paged trees, so
// every mutation crosses the page cache and store.
func TestDifferentialPaged(t *testing.T) {
	for seed := int64(4); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			st, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "t.db"),
				storage.FileStoreOptions{PinDirty: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			tr, err := NewPaged(st, Options{Dims: 2, DataCapacity: 8, Fanout: 8})
			if err != nil {
				t.Fatal(err)
			}
			runDifferential(t, tr, seed, 500)
		})
	}
}

// TestDifferentialDurable runs the battery on a durable tree, so every
// mutation also crosses the WAL group commit.
func TestDifferentialDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.CreateFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	d, err := NewDurable(st, filepath.Join(dir, "t.wal"), Options{Dims: 2, DataCapacity: 8, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	runDifferential(t, d, 6, 400)
}
