package bvtree

import (
	"fmt"
	"math/bits"
	"runtime"
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
// inclusive). Traversal order is unspecified. visit is always called
// from the calling goroutine, one item at a time, even when the
// traversal itself runs on the parallel range engine (see
// Options.RangeWorkers); returning false stops the query early.
//
// Range search needs no guard-set bookkeeping: every entry — promoted or
// not — whose brick intersects the query rectangle is visited, and since
// each page is pointed to by exactly one entry, no page is scanned twice.
// A region's points are a subset of its brick, so brick intersection is a
// sound and complete pruning test. This also makes the fan-out safe to
// parallelise: qualifying subtrees are disjoint work.
func (t *Tree) RangeQuery(rect geometry.Rect, visit Visitor) error {
	return t.RangeQueryWorkers(rect, visit, 0)
}

// RangeQueryWorkers is RangeQuery with a per-query worker override:
// 0 uses the tree's default (Options.RangeWorkers), 1 forces the serial
// reference walk, n > 1 caps the engine's pool at n workers.
//
// The query pins the current epoch and traverses an immutable view, so
// the tree lock is released before the first node is visited: a slow
// visitor (or a large scan) never blocks writers, and the query result
// is exactly the tree state at the moment the call started.
func (t *Tree) RangeQueryWorkers(rect geometry.Rect, visit Visitor, workers int) error {
	if workers < 0 {
		return fmt.Errorf("bvtree: negative range worker count %d", workers)
	}
	v, release := t.readView()
	defer release()
	workers = v.rangeWorkers(workers)
	m, tr := v.metrics, v.tracer
	if m == nil && tr == nil {
		return v.rangeQueryLocked(rect, visit, workers)
	}
	start := time.Now()
	var visited int64
	err := v.rangeQueryLocked(rect, func(p geometry.Point, payload uint64) bool {
		visited++
		return visit(p, payload)
	}, workers)
	dur := time.Since(start)
	if m != nil {
		m.RangeQuery.Observe(int64(dur))
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpRangeQuery, Dur: dur, N: visited, Err: err != nil})
	}
	return err
}

// rangeWorkers resolves a per-query worker override against the tree
// default and the machine width.
func (t *Tree) rangeWorkers(override int) int {
	w := override
	if w == 0 {
		w = t.opt.RangeWorkers
	}
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// rangeQueryLocked is the query body, run on a pinned immutable view
// (or with the shared lock held, when the receiver is itself a view):
// workers <= 1 runs the serial reference walk; otherwise the
// breadth-first descent engages the parallel engine once the frontier
// shows real fan-out.
func (t *Tree) rangeQueryLocked(rect geometry.Rect, visit Visitor, workers int) error {
	if rect.Dims() != t.opt.Dims {
		return fmt.Errorf("bvtree: query rect has %d dims, tree has %d", rect.Dims(), t.opt.Dims)
	}
	// A rect covering the whole data space (Scan, and universe-sized
	// windows) contains every brick, so the traversal can skip geometry
	// tests from the root down.
	full := region.BrickWithin(region.BitString{}, t.opt.Dims, rect)
	if t.rootLevel == 0 {
		_, err := t.scanData(t.root, rect, visit, full)
		return err
	}
	if workers <= 1 || !t.engineWorthwhile(rect) {
		_, err := t.rangeNode(t.root, rect, visit, full)
		return err
	}
	return t.parallelRange(rect, visit, workers)
}

// engineWorthwhile estimates how many data pages rect will touch and
// reports whether that is enough work for the parallel engine to beat
// the serial walk. The estimate is the classic uniform-density one:
// rect's fraction of the universe volume times the tree's page count.
// It exists because frontier shape alone cannot make this call in a
// BV-tree — guard entries give even a point query a frontier of dozens
// of qualifying subtrees (each visited node's guards contain the
// point), so a point-like window fans out in breadth while carrying no
// data volume, and pool spin-up plus per-task accounting would be pure
// overhead on it. Skewed data can make the estimate low for a hot
// window; the failure mode is benign — the query runs serially and
// correctly, it just forgoes parallelism.
func (t *Tree) engineWorthwhile(rect geometry.Rect) bool {
	const minEnginePages = 64
	const two64 = float64(1 << 64)
	frac := 1.0
	for d := range rect.Min {
		frac *= (float64(rect.Max[d]-rect.Min[d]) + 1) / two64
	}
	return frac*float64(t.size) >= minEnginePages*float64(t.opt.DataCapacity)
}

// rangeNode is the serial range walk: a plain recursive descent in
// entry order with early stop. On nodes carrying a fresh columnar
// mirror the qualification runs as one batched Intersect64/Within64
// pass per 64 entries, and subtrees whose brick lies inside rect
// descend with full set, skipping every further geometry test; the
// scalar fallback (stale mirror, or Options.ScalarNodeScan) tests
// entries one at a time exactly as the pre-columnar walk did and never
// sets full, so a ScalarNodeScan tree remains the trusted reference
// the differential tests compare the columnar walk (and the engine)
// against. Visit order and results are identical either way.
func (t *Tree) rangeNode(id page.ID, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	n, err := t.fetchIndex(id)
	if err != nil {
		return false, err
	}
	// Iterating the node in place is safe on a pinned view: a node the
	// pin can still observe is never mutated — the first write to it
	// captures it into its version chain and mutates a clone — and cache
	// eviction only drops map references, never touches node objects.
	if full {
		for i := range n.Entries {
			e := &n.Entries[i]
			cont, err := t.rangeChild(e.Child, e.Level, rect, visit, true)
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	if c := n.Cols(); c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			m := c.Intersect64(rect, base)
			fm := c.Within64(rect, base, m)
			for ; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				cont, err := t.rangeChild(c.Child(i), c.Level(i), rect, visit, fm&(m&-m) != 0)
				if err != nil || !cont {
					return cont, err
				}
			}
		}
		return true, nil
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if !region.BrickIntersects(e.Key, t.opt.Dims, rect) {
			continue
		}
		cont, err := t.rangeChild(e.Child, e.Level, rect, visit, false)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// rangeChild dispatches one qualifying entry of the serial walk.
func (t *Tree) rangeChild(id page.ID, level int, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	if level == 0 {
		return t.scanData(id, rect, visit, full)
	}
	return t.rangeNode(id, rect, visit, full)
}

func (t *Tree) scanData(id page.ID, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	dp, err := t.fetchData(id)
	if err != nil {
		return false, err
	}
	return t.scanDataPage(dp, rect, visit, full)
}

// scanDataPage emits a decoded page's matching items in item order: one
// batched ContainMask64 pass per 64 items when the page carries a fresh
// coordinate mirror, the per-item Rect.Contains test otherwise (stale
// mirror, full pages, or Options.ScalarNodeScan).
func (t *Tree) scanDataPage(dp *page.DataPage, rect geometry.Rect, visit Visitor, full bool) (bool, error) {
	if c := dp.DCols(); !full && c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			for m := c.ContainMask64(rect, base); m != 0; m &= m - 1 {
				it := &dp.Items[base+bits.TrailingZeros64(m)]
				if !visit(it.Point, it.Payload) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for _, it := range dp.Items {
		if full || rect.Contains(it.Point) {
			if !visit(it.Point, it.Payload) {
				return false, nil
			}
		}
	}
	return true, nil
}

// countDataPage is scanDataPage's count-only twin (full pages are
// counted by the caller without touching items).
func (t *Tree) countDataPage(dp *page.DataPage, rect geometry.Rect) int64 {
	total := int64(0)
	if c := dp.DCols(); c != nil && !t.opt.ScalarNodeScan {
		t.stats.BatchTests.Inc()
		for base := 0; base < c.Len(); base += 64 {
			total += int64(bits.OnesCount64(c.ContainMask64(rect, base)))
		}
		return total
	}
	for _, it := range dp.Items {
		if rect.Contains(it.Point) {
			total++
		}
	}
	return total
}

// qualifyRange reports whether an entry's subtree can hold matches and
// whether its brick is fully contained in rect. Containment of the
// parent implies containment of every child, so parentFull
// short-circuits both geometry tests.
func qualifyRange(en *page.Entry, parentFull bool, dims int, rect geometry.Rect) (qualifies, full bool) {
	if parentFull {
		return true, true
	}
	// Intersection first: most entries of most nodes fail it, and paying
	// the containment test only for the few that pass keeps this exactly
	// as cheap as the serial walk's single test on the reject path.
	if !region.BrickIntersects(en.Key, dims, rect) {
		return false, false
	}
	return true, region.BrickWithin(en.Key, dims, rect)
}

// splitQualify partitions the qualifying children of n against rect,
// appending data pages to dataIDs/dataFull and index subtrees (with
// their containment flags) to idx, and returns the extended slices plus
// the number of qualifiers. It is the one copy of the entry-filter
// logic previously repeated by the breadth-first expansions of
// parallelRange and countLocked, the engine's runTask and the serial
// count walk: batched Intersect64/Within64 passes over the columnar
// mirror when the node has one, the scalar qualifyRange test per entry
// otherwise. Appending to idx is stack-friendly: callers may treat idx
// as a shared stack and truncate back to their own watermark.
func (t *Tree) splitQualify(n *page.IndexNode, parentFull bool, rect geometry.Rect,
	dataIDs []page.ID, dataFull []bool, idx []rangeTask) ([]page.ID, []bool, []rangeTask, int) {
	nqual := 0
	c := n.Cols()
	if c == nil || t.opt.ScalarNodeScan {
		for i := range n.Entries {
			en := &n.Entries[i]
			q, f := qualifyRange(en, parentFull, t.opt.Dims, rect)
			if !q {
				continue
			}
			nqual++
			if en.Level == 0 {
				dataIDs = append(dataIDs, en.Child)
				dataFull = append(dataFull, f)
			} else {
				idx = append(idx, rangeTask{id: en.Child, level: en.Level, full: f})
			}
		}
		return dataIDs, dataFull, idx, nqual
	}
	t.stats.BatchTests.Inc()
	for base := 0; base < c.Len(); base += 64 {
		var m, fm uint64
		if parentFull {
			cnt := c.Len() - base
			if cnt > 64 {
				cnt = 64
			}
			m = ^uint64(0) >> uint(64-cnt)
			fm = m
		} else {
			m = c.Intersect64(rect, base)
			fm = c.Within64(rect, base, m)
		}
		for ; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			f := fm&(m&-m) != 0
			nqual++
			if c.Level(i) == 0 {
				dataIDs = append(dataIDs, c.Child(i))
				dataFull = append(dataFull, f)
			} else {
				idx = append(idx, rangeTask{id: c.Child(i), level: c.Level(i), full: f})
			}
		}
	}
	return dataIDs, dataFull, idx, nqual
}

// parallelRange is the engine-path descent. It expands the tree
// breadth-first on the calling goroutine — scanning qualifying data
// pages as they surface, through the batched read seam — until the
// frontier of qualifying index subtrees reaches spinUpFanout(workers),
// and only then hands the frontier to the worker pool as seeds. Queries
// without that much independent work (point-like windows, and the
// boundary-straddling lookups that guard entries make common: two
// qualifying children is not evidence of real fan-out in a BV-tree)
// complete during the expansion and never pay pool startup.
func (t *Tree) parallelRange(rect geometry.Rect, visit Visitor, workers int) error {
	frontier := []rangeTask{{id: t.root}}
	var dataIDs []page.ID
	var dataFull []bool
	// The spin-up condition demands breadth explosion, not mere frontier
	// size: guard entries let a point-like query accrete ~one extra
	// subtree per node visited, so a fixed threshold would eventually
	// trip on queries with no volume at all. Requiring the frontier to
	// outgrow the pop count admits only windows that multiply their
	// frontier as they descend.
	for pops := 0; len(frontier) > 0 && len(frontier) < spinUpFanout(workers)+pops; pops++ {
		task := frontier[0]
		frontier = frontier[:copy(frontier, frontier[1:])]
		n, err := t.fetchIndex(task.id)
		if err != nil {
			return err
		}
		dataIDs, dataFull, frontier, _ = t.splitQualify(n, task.full, rect, dataIDs[:0], dataFull[:0], frontier)
		if len(dataIDs) > 0 {
			cont, err := t.scanDataSet(dataIDs, dataFull, rect, visit)
			if err != nil || !cont {
				return err
			}
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	e := newRangeEngine(t, rect, workers, false)
	return e.run(frontier, visit)
}

// scanDataSet scans a set of qualifying data pages serially through the
// batched read seam: one coalesced fetch for the cold pages, streaming
// decode outside the decoded-node cache, and no per-point containment
// test for pages whose brick lies inside rect.
func (t *Tree) scanDataSet(ids []page.ID, full []bool, rect geometry.Rect, visit Visitor) (bool, error) {
	pn := t.bsrc
	if pn == nil {
		for i, id := range ids {
			dp, err := t.fetchData(id)
			if err != nil {
				return false, err
			}
			if full[i] {
				t.stats.RangeFullPages.Inc()
			}
			cont, err := t.scanDataPage(dp, rect, visit, full[i])
			if err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	pages, blobs, miss, err := pn.dataBatch(ids, nil, nil, nil)
	if err != nil {
		return false, err
	}
	if len(miss) > 0 {
		t.stats.RangeBatchPages.Add(uint64(len(miss)))
	}
	// Blob pages decode into one coordinate arena local to this call —
	// never reused afterwards, so visitors may retain points, which the
	// cache-admission path also permits (arena growth orphans rather than
	// overwrites earlier backings; see page.AppendDataItems).
	var coords []uint64
	for i := range ids {
		t.stats.NodeAccesses.Inc()
		if full[i] {
			t.stats.RangeFullPages.Inc()
		}
		if dp := pages[i]; dp != nil {
			cont, err := t.scanDataPage(dp, rect, visit, full[i])
			if err != nil || !cont {
				return cont, err
			}
			continue
		}
		var items []page.Item
		items, coords, err = page.AppendDataItems(blobs[i], nil, coords)
		if err != nil {
			return false, err
		}
		for j := range items {
			if full[i] || rect.Contains(items[j].Point) {
				if !visit(items[j].Point, items[j].Payload) {
					return false, nil
				}
			}
		}
	}
	return true, nil
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

// Count returns the number of items inside rect. It runs a count-only
// traversal — no per-item visitor call — in which a data page fully
// contained in rect contributes its item count without being decoded
// item by item.
func (t *Tree) Count(rect geometry.Rect) (int, error) {
	return t.CountWorkers(rect, 0)
}

// CountWorkers is Count with a per-query worker override, interpreted as
// in RangeQueryWorkers. Like RangeQueryWorkers it runs on a pinned
// immutable view, holding no tree lock during the traversal.
func (t *Tree) CountWorkers(rect geometry.Rect, workers int) (int, error) {
	if workers < 0 {
		return 0, fmt.Errorf("bvtree: negative range worker count %d", workers)
	}
	v, release := t.readView()
	defer release()
	workers = v.rangeWorkers(workers)
	m, tr := v.metrics, v.tracer
	if m == nil && tr == nil {
		n, err := v.countLocked(rect, workers)
		return int(n), err
	}
	start := time.Now()
	n, err := v.countLocked(rect, workers)
	dur := time.Since(start)
	if m != nil {
		m.RangeQuery.Observe(int64(dur))
	}
	if tr != nil {
		tr.Trace(obs.Event{Layer: obs.LayerTree, Op: obs.OpRangeQuery, Dur: dur, N: n, Err: err != nil})
	}
	return int(n), err
}

// countScratch is the reusable state of the serial count walk.
type countScratch struct {
	dataIDs  []page.ID
	dataFull []bool
	// idx is the shared subtree stack of the recursive count walk: each
	// countNode invocation appends its qualifying index children, then
	// truncates back to its entry watermark (values survive deeper
	// appends — see countNode).
	idx    []rangeTask
	pages  []*page.DataPage
	blobs  [][]byte
	miss   []page.ID
	items  []page.Item
	coords []uint64
}

// countLocked is the count body (shared lock held).
func (t *Tree) countLocked(rect geometry.Rect, workers int) (int64, error) {
	if rect.Dims() != t.opt.Dims {
		return 0, fmt.Errorf("bvtree: query rect has %d dims, tree has %d", rect.Dims(), t.opt.Dims)
	}
	var cs countScratch
	if t.rootLevel == 0 {
		full := region.BrickWithin(region.BitString{}, t.opt.Dims, rect)
		return t.countDataSet([]page.ID{t.root}, []bool{full}, rect, &cs)
	}
	if workers <= 1 || !t.engineWorthwhile(rect) {
		return t.countNode(t.root, false, rect, &cs)
	}
	// The same breadth-first expansion as parallelRange (including the
	// breadth-explosion spin-up condition), in counting mode.
	frontier := []rangeTask{{id: t.root}}
	total := int64(0)
	for pops := 0; len(frontier) > 0 && len(frontier) < spinUpFanout(workers)+pops; pops++ {
		task := frontier[0]
		frontier = frontier[:copy(frontier, frontier[1:])]
		n, err := t.fetchIndex(task.id)
		if err != nil {
			return 0, err
		}
		cs.dataIDs, cs.dataFull, frontier, _ = t.splitQualify(n, task.full, rect, cs.dataIDs[:0], cs.dataFull[:0], frontier)
		if len(cs.dataIDs) > 0 {
			sub, err := t.countDataSet(cs.dataIDs, cs.dataFull, rect, &cs)
			if err != nil {
				return 0, err
			}
			total += sub
		}
	}
	if len(frontier) == 0 {
		return total, nil
	}
	e := newRangeEngine(t, rect, workers, true)
	sub, err := e.runCount(frontier)
	return total + sub, err
}

// countNode is the serial count-only traversal: the qualifying data
// children of each node are counted through the batched read seam (a
// fully contained page costs one item-count decode), then the index
// children are recursed into. The data scratch is safe to share with
// the recursion because each node finishes its data pass before
// descending; the subtree stack is shared by watermark — this node
// re-reads its own stack entries by index after each child returns, and
// children always truncate back to the length they found, so deeper
// appends (even ones that relocate the backing array) never disturb
// the pending entries above the watermark.
func (t *Tree) countNode(id page.ID, full bool, rect geometry.Rect, cs *countScratch) (int64, error) {
	n, err := t.fetchIndex(id)
	if err != nil {
		return 0, err
	}
	lo := len(cs.idx)
	cs.dataIDs, cs.dataFull, cs.idx, _ = t.splitQualify(n, full, rect, cs.dataIDs[:0], cs.dataFull[:0], cs.idx)
	total := int64(0)
	if len(cs.dataIDs) > 0 {
		total, err = t.countDataSet(cs.dataIDs, cs.dataFull, rect, cs)
		if err != nil {
			cs.idx = cs.idx[:lo]
			return 0, err
		}
	}
	for k := lo; k < len(cs.idx); k++ {
		task := cs.idx[k]
		sub, err := t.countNode(task.id, task.full, rect, cs)
		if err != nil {
			cs.idx = cs.idx[:lo]
			return 0, err
		}
		total += sub
	}
	cs.idx = cs.idx[:lo]
	return total, nil
}

// countDataSet counts the matching items of a set of qualifying data
// pages. Pages fully contained in rect are counted without a per-point
// test; on paged trees a cold fully-contained page is not even
// item-decoded (page.DecodeDataCount).
func (t *Tree) countDataSet(ids []page.ID, full []bool, rect geometry.Rect, cs *countScratch) (int64, error) {
	total := int64(0)
	pn := t.bsrc
	if pn == nil {
		for i, id := range ids {
			dp, err := t.fetchData(id)
			if err != nil {
				return 0, err
			}
			if full[i] {
				t.stats.RangeFullPages.Inc()
				total += int64(len(dp.Items))
				continue
			}
			total += t.countDataPage(dp, rect)
		}
		return total, nil
	}
	var err error
	cs.pages, cs.blobs, cs.miss, err = pn.dataBatch(ids, cs.pages, cs.blobs, cs.miss)
	if err != nil {
		return 0, err
	}
	if len(cs.miss) > 0 {
		t.stats.RangeBatchPages.Add(uint64(len(cs.miss)))
	}
	for i := range ids {
		t.stats.NodeAccesses.Inc()
		if dp := cs.pages[i]; dp != nil {
			if full[i] {
				t.stats.RangeFullPages.Inc()
				total += int64(len(dp.Items))
				continue
			}
			total += t.countDataPage(dp, rect)
			continue
		}
		if full[i] {
			n, err := page.DecodeDataCount(cs.blobs[i])
			if err != nil {
				return 0, err
			}
			t.stats.RangeFullPages.Inc()
			total += int64(n)
			continue
		}
		cs.items, cs.coords = cs.items[:0], cs.coords[:0]
		cs.items, cs.coords, err = page.AppendDataItems(cs.blobs[i], cs.items, cs.coords)
		if err != nil {
			return 0, err
		}
		for j := range cs.items {
			if rect.Contains(cs.items[j].Point) {
				total++
			}
		}
	}
	return total, nil
}
