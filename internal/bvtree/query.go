package bvtree

import (
	"fmt"
	"math/bits"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/region"
)

// Visitor receives matching items during a query. Returning false stops
// the traversal early.
type Visitor func(p geometry.Point, payload uint64) bool

// RangeQuery invokes visit for every stored item inside rect (boundaries
// inclusive). Traversal order is unspecified. visit is called from the
// calling goroutine, one item at a time; returning false stops the query
// early.
//
// Range search needs no guard-set bookkeeping: every entry — promoted or
// not — whose brick intersects the query rectangle is visited, and since
// each page is pointed to by exactly one entry, no page is scanned twice.
// A region's points are a subset of its brick, so brick intersection is a
// sound and complete pruning test.
//
// The query pins the current epoch and traverses an immutable view, so
// the tree lock is released before the first node is visited: a slow
// visitor (or a large scan) never blocks writers, and the query result
// is exactly the tree state at the moment the call started.
func (t *Tree) RangeQuery(rect geometry.Rect, visit Visitor) error {
	_, err := t.traverse(rect, visit)
	return err
}

// traverse runs one range traversal on a pinned view and records its
// latency and event: visit != nil visits the matching items, visit ==
// nil only counts them. It returns the number of items visited or
// counted.
func (t *Tree) traverse(rect geometry.Rect, visit Visitor) (int64, error) {
	v, release := t.readView()
	defer release()
	m, tr := v.metrics, v.tracer
	if m == nil && tr == nil {
		return v.rangeLocked(rect, visit)
	}
	start := time.Now()
	n, err := v.rangeLocked(rect, visit)
	dur := time.Since(start)
	if m != nil {
		m.RangeQuery.Observe(int64(dur))
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpRangeQuery, Dur: dur, N: n, Err: err != nil})
	}
	return n, err
}

// rangeWalk is the state of one range traversal: the window, the
// visitor (nil when counting) and the running item total.
type rangeWalk struct {
	t     *Tree
	rect  geometry.Rect
	visit Visitor
	n     int64
}

// rangeLocked is the body of RangeQuery, Scan, PartialMatch and Count,
// run on a pinned immutable view (or with the shared lock held, when the
// receiver is itself a view): one depth-first descent in entry order.
func (t *Tree) rangeLocked(rect geometry.Rect, visit Visitor) (int64, error) {
	if rect.Dims() != t.opt.Dims {
		return 0, fmt.Errorf("bvtree: query rect has %d dims, tree has %d", rect.Dims(), t.opt.Dims)
	}
	w := rangeWalk{t: t, rect: rect, visit: visit}
	// A rect covering the whole data space (Scan, and universe-sized
	// windows) contains every brick, so the traversal can skip geometry
	// tests from the root down.
	full := region.BrickWithin(region.BitString{}, t.opt.Dims, rect)
	_, err := w.child(t.root, t.rootLevel, full)
	return w.n, err
}

// child descends into one qualifying entry: page id at level (0 for a
// data page), with full set when its brick lies inside the window, which
// exempts the whole subtree from geometry tests. It reports false when
// the visitor stopped the query.
func (w *rangeWalk) child(id page.ID, level int, full bool) (bool, error) {
	t := w.t
	if level == 0 {
		dp, err := t.fetchData(id)
		if err != nil {
			return false, err
		}
		if full {
			t.stats.RangeFullPages.Inc()
		}
		if w.visit != nil {
			return w.scanDataPage(dp, full), nil
		}
		if full {
			w.n += int64(len(dp.Items))
		} else {
			w.n += w.countDataPage(dp)
		}
		return true, nil
	}
	// Iterating the node in place is safe on a pinned view: a node the
	// pin can still observe is never mutated — the first write to it
	// captures it into its version chain and mutates a clone — and cache
	// eviction only drops map references, never touches node objects.
	n, err := t.fetchIndex(id)
	if err != nil {
		return false, err
	}
	t.stats.RangeTasks.Inc()
	for base := 0; base < len(n.Entries); base += 64 {
		m, fm := t.splitQualify(n, full, w.rect, base)
		for ; m != 0; m &= m - 1 {
			e := &n.Entries[base+bits.TrailingZeros64(m)]
			cont, err := w.child(e.Child, e.Level, fm&(m&-m) != 0)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// scanDataPage visits a decoded page's matching items in item order: one
// batched ContainMask64 pass per 64 items when the page carries a fresh
// coordinate mirror, the per-item Rect.Contains test otherwise (stale
// mirror, or Options.ScalarNodeScan), and no test at all when the page
// lies inside the window. It reports false when the visitor stopped.
func (w *rangeWalk) scanDataPage(dp *page.DataPage, full bool) bool {
	t := w.t
	if c := dp.DCols(); !full && c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			for m := c.ContainMask64(w.rect, base); m != 0; m &= m - 1 {
				it := &dp.Items[base+bits.TrailingZeros64(m)]
				w.n++
				if !w.visit(it.Point, it.Payload) {
					return false
				}
			}
		}
		return true
	}
	for _, it := range dp.Items {
		if full || w.rect.Contains(it.Point) {
			w.n++
			if !w.visit(it.Point, it.Payload) {
				return false
			}
		}
	}
	return true
}

// countDataPage is scanDataPage's count-only twin (full pages are
// counted by the caller without touching items).
func (w *rangeWalk) countDataPage(dp *page.DataPage) int64 {
	total := int64(0)
	if c := dp.DCols(); c != nil && !w.t.opt.ScalarNodeScan {
		w.t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			total += int64(bits.OnesCount64(c.ContainMask64(w.rect, base)))
		}
		return total
	}
	for _, it := range dp.Items {
		if w.rect.Contains(it.Point) {
			total++
		}
	}
	return total
}

// splitQualify tests the (up to) 64 entries of n starting at base
// against rect. Bit i of m is set when entry base+i can hold matches
// (its brick meets rect), and bit i of fm when its brick lies inside
// rect. The test is one batched Intersect64/Within64 pass over the
// columnar mirror when the node has one, and per-entry brick tests
// otherwise (stale mirror, or Options.ScalarNodeScan). Containment of
// the parent implies containment of every child, so parentFull answers
// without any test.
func (t *Tree) splitQualify(n *page.IndexNode, parentFull bool, rect geometry.Rect, base int) (m, fm uint64) {
	cnt := min(len(n.Entries)-base, 64)
	if parentFull {
		m = ^uint64(0) >> uint(64-cnt)
		return m, m
	}
	if c := n.Cols(); c != nil && !t.opt.ScalarNodeScan {
		if base == 0 { // one count per node, like the other batched scans
			t.stats.BatchTests.Inc()
		}
		m = c.Intersect64(rect, base)
		return m, c.Within64(rect, base, m)
	}
	for i := 0; i < cnt; i++ {
		// Intersection first: most entries of most nodes fail it, so
		// the reject path costs a single test.
		key := n.Entries[base+i].Key
		if region.BrickIntersects(key, t.opt.Dims, rect) {
			m |= 1 << i
			if region.BrickWithin(key, t.opt.Dims, rect) {
				fm |= 1 << i
			}
		}
	}
	return m, fm
}

// PartialMatch answers a partial-match query: values[i] constrains
// dimension i exactly when specified[i] is true; unconstrained dimensions
// range over the whole domain. This is the m-of-n attribute query the
// paper's introduction motivates; symmetry of the index means its cost
// depends only on how many dimensions are specified, not which.
func (t *Tree) PartialMatch(values geometry.Point, specified []bool, visit Visitor) error {
	if len(values) != t.opt.Dims || len(specified) != t.opt.Dims {
		return fmt.Errorf("bvtree: partial-match query shape mismatch (dims %d)", t.opt.Dims)
	}
	rect := geometry.UniverseRect(t.opt.Dims)
	for i := range values {
		if specified[i] {
			rect.Min[i], rect.Max[i] = values[i], values[i]
		}
	}
	return t.RangeQuery(rect, visit)
}

// Scan invokes visit for every stored item.
func (t *Tree) Scan(visit Visitor) error {
	return t.RangeQuery(geometry.UniverseRect(t.opt.Dims), visit)
}

// Count returns the number of items inside rect. It runs the same
// traversal as RangeQuery with counting in place of the visitor: a data
// page fully contained in rect contributes its item count without a
// per-item test.
func (t *Tree) Count(rect geometry.Rect) (int, error) {
	n, err := t.traverse(rect, nil)
	return int(n), err
}
