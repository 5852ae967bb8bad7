package main

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"sort"

	"bvtree/internal/geometry"
	"bvtree/internal/workload"
)

// dims is the dimensionality of every workload: cmd/bvserver's default.
const dims = 2

// userBytes is the payload a client stores per item: two uint64
// coordinates and a uint64 payload.
const userBytes = 8*dims + 8

// pointSet holds points in one flat coordinate array. Point i carries
// payload i, so a payload names the point it was stored with.
type pointSet struct {
	flat []uint64
}

func (s *pointSet) len() int { return len(s.flat) / dims }

// at returns point i as a view into the flat array; callers must not
// modify it.
func (s *pointSet) at(i int) geometry.Point {
	return geometry.Point(s.flat[i*dims : i*dims+dims : i*dims+dims])
}

// layoutSeed is cmd/bvserver's default -seed. The server plans its
// shard splits from a sample of the clustered layout drawn from it, so
// the benchmark draws its points from that same layout: the shards stay
// balanced with bvserver's default flags, and runs with different seeds
// differ in their sample, not in the shape of the data.
const layoutSeed = 1

// clusters is the cluster count of workload.Generate(Clustered).
const clusters = 16

// clusterLayout draws the centres and scales of the clustered layout
// exactly as workload.Generate(Clustered) does, and returns the source
// in the state Generate continues from.
func clusterLayout(seed uint64) (centers [clusters][dims]uint64, scales [clusters]float64, src *workload.Source) {
	src = workload.NewSource(seed)
	for c := range centers {
		for d := range centers[c] {
			centers[c][d] = src.Uint64()
		}
		scales[c] = math.Pow(2, 40+src.Float64()*20)
	}
	return centers, scales, src
}

// drawClustered draws one point of the layout from src, as
// workload.Generate(Clustered) does.
func drawClustered(centers *[clusters][dims]uint64, scales *[clusters]float64, src *workload.Source) [dims]uint64 {
	c := src.Intn(clusters)
	var p [dims]uint64
	for d := range p {
		p[d] = centers[c][d] + uint64(int64(src.NormFloat64()*scales[c]))
	}
	return p
}

// genPoints draws n distinct points of the clustered layout, the draws
// seeded by seed.
func genPoints(n int, seed uint64) (*pointSet, error) {
	centers, scales, _ := clusterLayout(layoutSeed)
	src := workload.NewSource(seed ^ 0x706f696e7473)
	seen := make(map[[dims]uint64]struct{}, n)
	s := &pointSet{flat: make([]uint64, 0, n*dims)}
	for draws := 0; s.len() < n; draws++ {
		if draws > 2*n+1000 {
			return nil, fmt.Errorf("generator gave only %d distinct points of %d", s.len(), n)
		}
		p := drawClustered(&centers, &scales, src)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		s.flat = append(s.flat, p[:]...)
	}
	return s, nil
}

// xIndex orders a contiguous payload range [base, base+n) of a pointSet
// by x coordinate, so a window or a neighbour search scans only the
// x-slab it can reach. It is the brute-force oracle: no structure beyond
// one sort.
type xIndex struct {
	pts  *pointSet
	base int
	ids  []int32  // offsets from base, ascending by x
	xs   []uint64 // x of ids, for binary search
}

func newXIndex(pts *pointSet, base, n int) *xIndex {
	ix := &xIndex{pts: pts, base: base, ids: make([]int32, n), xs: make([]uint64, n)}
	for i := range ix.ids {
		ix.ids[i] = int32(i)
	}
	sort.Slice(ix.ids, func(a, b int) bool {
		return pts.flat[(base+int(ix.ids[a]))*dims] < pts.flat[(base+int(ix.ids[b]))*dims]
	})
	for i, id := range ix.ids {
		ix.xs[i] = pts.flat[(base+int(id))*dims]
	}
	return ix
}

// inRect appends the payloads of the indexed points inside r, unsorted.
func (ix *xIndex) inRect(r geometry.Rect, out []uint64) []uint64 {
	lo := sort.Search(len(ix.xs), func(i int) bool { return ix.xs[i] >= r.Min[0] })
	for i := lo; i < len(ix.xs) && ix.xs[i] <= r.Max[0]; i++ {
		pay := ix.base + int(ix.ids[i])
		if r.Contains(ix.pts.at(pay)) {
			out = append(out, uint64(pay))
		}
	}
	return out
}

// maxHeap holds the k smallest values offered, the largest on top.
type maxHeap[T cmp.Ordered] []T

func (h maxHeap[T]) Len() int           { return len(h) }
func (h maxHeap[T]) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap[T]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap[T]) Push(x any)        { *h = append(*h, x.(T)) }
func (h *maxHeap[T]) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// offer keeps v if it is among the k smallest values seen.
func (h *maxHeap[T]) offer(v T, k int) {
	if len(*h) < k {
		heap.Push(h, v)
	} else if v < (*h)[0] {
		(*h)[0] = v
		heap.Fix(h, 0)
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// outward visits the indexed points in order of increasing |x - c.x|
// until visit returns false for a point whose x-distance alone already
// rules it (and every later point) out.
func (ix *xIndex) outward(c geometry.Point, visit func(pay int, dx uint64) bool) {
	r := sort.Search(len(ix.xs), func(i int) bool { return ix.xs[i] >= c[0] })
	l := r - 1
	for l >= 0 || r < len(ix.xs) {
		var i int
		switch {
		case l < 0:
			i, r = r, r+1
		case r >= len(ix.xs):
			i, l = l, l-1
		case c[0]-ix.xs[l] <= ix.xs[r]-c[0]:
			i, l = l, l-1
		default:
			i, r = r, r+1
		}
		if !visit(ix.base+int(ix.ids[i]), absDiff(ix.xs[i], c[0])) {
			return
		}
	}
}

// chebyshevRadius returns the distance, in the max-norm, from c to its
// k-th nearest indexed point: a square window of that half-side around c
// holds about k points.
func (ix *xIndex) chebyshevRadius(c geometry.Point, k int) uint64 {
	h := make(maxHeap[uint64], 0, k)
	ix.outward(c, func(pay int, dx uint64) bool {
		if len(h) == k && dx > h[0] {
			return false
		}
		var d uint64
		for j, v := range ix.pts.at(pay) {
			d = max(d, absDiff(v, c[j]))
		}
		h.offer(d, k)
		return true
	})
	return h[0]
}

// pointDist is the Euclidean distance the tree reports in
// bvtree.Neighbor.Dist, computed the same way.
func pointDist(a, b geometry.Point) float64 {
	s := 0.0
	for d := range a {
		diff := float64(absDiff(a[d], b[d]))
		s += diff * diff
	}
	return math.Sqrt(s)
}

// kthDist returns the Euclidean distance from c to its k-th nearest
// indexed point.
func (ix *xIndex) kthDist(c geometry.Point, k int) float64 {
	h := make(maxHeap[float64], 0, k)
	ix.outward(c, func(pay int, dx uint64) bool {
		if len(h) == k && float64(dx) > h[0] {
			return false
		}
		h.offer(pointDist(c, ix.pts.at(pay)), k)
		return true
	})
	return h[0]
}

// window is one precomputed query rectangle with its oracle answer.
type window struct {
	rect geometry.Rect
	// preload holds the sorted payloads of the preloaded points inside
	// rect; inserts the sorted offsets j of the live-insert stream points
	// (payload preloadN+j) inside it.
	preload []uint64
	inserts []int32
}

// probe is one precomputed Nearest query with its oracle answer.
type probe struct {
	center geometry.Point
	kth    float64 // the preload oracle's k-th neighbour distance
}

// Window sizing: each window's item count is drawn log-uniformly from
// [winItemsMin, winItemsMax], so the median Range returns about 1,000
// items whatever the local density of the clustered data.
const (
	winItemsMin = 250
	winItemsMax = 4000
	nearestK    = 8
)

// makeWindows draws n windows centred on preloaded points, each sized
// to hold a log-uniform count of preloaded points, with both oracle
// answers attached.
func makeWindows(pre, ins *xIndex, n int, seed uint64) []window {
	src := workload.NewSource(seed ^ 0x77696e646f7773)
	out := make([]window, n)
	lnMin, lnMax := math.Log(winItemsMin), math.Log(winItemsMax)
	for i := range out {
		c := pre.pts.at(src.Intn(len(pre.ids)))
		k := int(math.Exp(lnMin + src.Float64()*(lnMax-lnMin)))
		h := pre.chebyshevRadius(c, k)
		r := geometry.Rect{Min: make(geometry.Point, dims), Max: make(geometry.Point, dims)}
		for d := range c {
			r.Min[d], r.Max[d] = satSub(c[d], h), satAdd(c[d], h)
		}
		w := window{rect: r, preload: pre.inRect(r, nil)}
		sort.Slice(w.preload, func(a, b int) bool { return w.preload[a] < w.preload[b] })
		if ins != nil {
			for _, pay := range ins.inRect(r, nil) {
				w.inserts = append(w.inserts, int32(int(pay)-ins.base))
			}
			sort.Slice(w.inserts, func(a, b int) bool { return w.inserts[a] < w.inserts[b] })
		}
		out[i] = w
	}
	return out
}

// makeProbes draws n Nearest centres on preloaded points with their
// oracle k-th distances.
func makeProbes(pre *xIndex, n int, seed uint64) []probe {
	src := workload.NewSource(seed ^ 0x6e656172657374)
	out := make([]probe, n)
	for i := range out {
		c := pre.pts.at(src.Intn(len(pre.ids)))
		out[i] = probe{center: c, kth: pre.kthDist(c, nearestK)}
	}
	return out
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// insertsBefore returns how many of the window's live-insert points have
// stream offset below n.
func (w *window) insertsBefore(n int) int {
	return sort.Search(len(w.inserts), func(i int) bool { return int(w.inserts[i]) >= n })
}

// checkRange verifies one Range answer against the oracle: exactly the
// preloaded points inside the window, plus live inserts inside it —
// every insert acknowledged before the query was sent (offset below
// acked) and none issued after its reply arrived (offset at or above
// issued). Every returned point must be the one stored with its payload.
func checkRange(all *pointSet, preloadN int, w *window, pts []geometry.Point, pays []uint64, acked, issued int) error {
	got := append([]uint64(nil), pays...)
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	for i, pay := range pays {
		if pay >= uint64(preloadN+issued) || pay >= uint64(all.len()) {
			return fmt.Errorf("range returned unknown payload %d", pay)
		}
		if !pts[i].Equal(all.at(int(pay))) {
			return fmt.Errorf("range returned point %v for payload %d, stored %v", pts[i], pay, all.at(int(pay)))
		}
		if !w.rect.Contains(pts[i]) {
			return fmt.Errorf("range returned point %v outside %v", pts[i], w.rect)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			return fmt.Errorf("range returned payload %d twice", got[i])
		}
	}
	split := sort.Search(len(got), func(i int) bool { return got[i] >= uint64(preloadN) })
	pre, live := got[:split], got[split:]
	if len(pre) != len(w.preload) {
		return fmt.Errorf("range returned %d preloaded items, oracle has %d", len(pre), len(w.preload))
	}
	for i := range pre {
		if pre[i] != w.preload[i] {
			return fmt.Errorf("range answer differs from oracle at payload %d (oracle %d)", pre[i], w.preload[i])
		}
	}
	// Every acknowledged insert inside the window must be visible.
	need := w.inserts[:w.insertsBefore(acked)]
	j := 0
	for _, off := range need {
		want := uint64(preloadN) + uint64(off)
		for j < len(live) && live[j] < want {
			j++
		}
		if j == len(live) || live[j] != want {
			return fmt.Errorf("range misses acknowledged insert %d", want)
		}
	}
	return nil
}

// checkCount verifies a Count answer on the same terms as checkRange.
func checkCount(preloadN int, w *window, n, acked, issued int) error {
	lo := len(w.preload) + w.insertsBefore(acked)
	hi := len(w.preload) + w.insertsBefore(issued)
	if n < lo || n > hi {
		return fmt.Errorf("count %d outside oracle bounds [%d, %d]", n, lo, hi)
	}
	return nil
}

// checkNearest verifies a Nearest(k) answer: k results, each the point
// stored with its payload at the distance reported, in ascending order,
// with the k-th no farther than the preload oracle's k-th (live inserts
// can only bring neighbours closer).
func checkNearest(all *pointSet, preloadN int, pr *probe, dists []float64, pts []geometry.Point, pays []uint64, issued int) error {
	if len(pays) != nearestK {
		return fmt.Errorf("nearest returned %d items, want %d", len(pays), nearestK)
	}
	for i, pay := range pays {
		if pay >= uint64(preloadN+issued) || pay >= uint64(all.len()) {
			return fmt.Errorf("nearest returned unknown payload %d", pay)
		}
		if !pts[i].Equal(all.at(int(pay))) {
			return fmt.Errorf("nearest returned point %v for payload %d", pts[i], pay)
		}
		if d := pointDist(pr.center, pts[i]); d != dists[i] {
			return fmt.Errorf("nearest reports distance %g for a point at %g", dists[i], d)
		}
		if i > 0 && dists[i] < dists[i-1] {
			return fmt.Errorf("nearest results out of order")
		}
	}
	if kth := dists[len(dists)-1]; kth > pr.kth {
		return fmt.Errorf("nearest k-th distance %g exceeds the oracle's %g", kth, pr.kth)
	}
	return nil
}
