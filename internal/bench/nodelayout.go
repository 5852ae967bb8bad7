package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/workload"
)

// NodeLayoutReport is the JSON artifact emitted by bvbench -nodelayout.
// It is the old-vs-new proof for the columnar node layout: the same
// in-memory tree workload measured twice, once with the batched column
// predicates live ("columnar") and once forced onto the pre-columnar
// per-entry scans (Options.ScalarNodeScan, "scalar" — behaviourally the
// seed hot path), with a benchstat-style delta per metric. Deltas are
// computed new-vs-old, so negative percentages mean the columnar layout
// is faster. Regression is the machine-readable check: true when the
// columnar mode is slower than the scalar baseline beyond noise on any
// measured metric.
type NodeLayoutReport struct {
	Experiment string `json:"experiment"`
	TreeSize   int    `json:"tree_size"`
	Dims       int    `json:"dims"`
	Rounds     int    `json:"rounds"` // interleaved; best round kept
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// RangeSideFrac is the query-window side per dimension; 0.316² ≈ 10%
	// of the 2-D space selected per query.
	RangeSideFrac float64 `json:"range_side_frac"`

	Results []NodeLayoutResult `json:"results"`

	// Benchstat-style new-vs-old deltas ((columnar-scalar)/scalar·100).
	LookupDeltaPct float64 `json:"lookup_delta_pct"`
	InsertDeltaPct float64 `json:"insert_delta_pct"`
	RangeDeltaPct  float64 `json:"range_delta_pct"`
	// Throughput improvements (positive = columnar faster), the form the
	// acceptance thresholds are stated in.
	LookupImprovementPct float64 `json:"lookup_improvement_pct"`
	RangeImprovementPct  float64 `json:"range_improvement_pct"`
	Regression           bool    `json:"regression"`

	// Proof the batched path actually ran: counters from the columnar
	// tree after the measurement (zero on the scalar tree's hot paths).
	BatchTests   uint64 `json:"batch_tests"`
	NodeGapMoves uint64 `json:"node_gap_moves"`
}

// NodeLayoutResult is one node-scan mode's row.
type NodeLayoutResult struct {
	Mode           string  `json:"mode"` // "scalar" (old) or "columnar" (new)
	LookupNsPerOp  float64 `json:"lookup_ns_per_op"`
	InsertNsPerOp  float64 `json:"insert_ns_per_op"`
	RangeNsPerOp   float64 `json:"range_ns_per_query"`
	RangeItems     uint64  `json:"range_items"` // per round; must match across modes
	LookupsPerSec  float64 `json:"lookups_per_sec"`
	RangesPerSec   float64 `json:"ranges_per_sec"`
	InsertedPerSec float64 `json:"inserts_per_sec"`
}

// Workload shape. Same discipline as the obs benchmark: both trees get
// the base load interleaved chunk-wise (no fresh-heap advantage for
// either mode), every round times a small chunk per mode with the mode
// order rotated, and each mode's floor is its best round — scheduler
// stalls land on single rounds and are discarded by the min, which is
// what lets the comparison run on a 1-CPU container.
const (
	nlTreeSize    = 300_000
	nlRounds      = 40
	nlLookupChunk = 2_000
	nlInsertChunk = 500
	nlRangeChunk  = 6     // range queries per mode per round
	nlSideFrac    = 0.316 // ≈10% of the 2-D space per query window
	nlDims        = 2
)

// RunNodeLayout measures the columnar node layout against the scalar
// baseline on the in-memory backend and writes a human-readable table
// to w; the returned report is what bvbench serialises to
// BENCH_nodelayout.json.
func RunNodeLayout(w io.Writer) (*NodeLayoutReport, error) {
	pts, err := workload.Generate(workload.Uniform, nlDims, nlTreeSize+nlRounds*nlInsertChunk, 42)
	if err != nil {
		return nil, err
	}
	base, extra := pts[:nlTreeSize], pts[nlTreeSize:]

	modes := []struct {
		name   string
		scalar bool
	}{
		{name: "scalar", scalar: true}, // old: per-entry BrickIntersects/IsPrefixOf
		{name: "columnar"},             // new: Match64/Intersect64 over the mirror
	}
	trees := make([]*bvtree.Tree, len(modes))
	for i, m := range modes {
		tr, err := bvtree.New(bvtree.Options{Dims: nlDims, ScalarNodeScan: m.scalar})
		if err != nil {
			return nil, err
		}
		trees[i] = tr
	}
	const buildChunk = 1000
	for lo := 0; lo < len(base); lo += buildChunk {
		hi := lo + buildChunk
		if hi > len(base) {
			hi = len(base)
		}
		for _, tr := range trees {
			for j := lo; j < hi; j++ {
				if err := tr.Insert(base[j], uint64(j)); err != nil {
					return nil, err
				}
			}
		}
	}

	rects := workload.QueryRects(nlDims, nlRounds*nlRangeChunk, nlSideFrac, 1234)

	fmt.Fprintf(w, "node layout: %d-point in-memory tree, %d rounds x (%d lookups + %d inserts + %d range queries @ side %.3f) per mode, floor = best round\n\n",
		nlTreeSize, nlRounds, nlLookupChunk, nlInsertChunk, nlRangeChunk, nlSideFrac)

	bestLookup := make([]float64, len(modes))
	bestInsert := make([]float64, len(modes))
	bestRange := make([]float64, len(modes))
	rangeItems := make([]uint64, len(modes))
	for round := 0; round < nlRounds; round++ {
		lo := round * nlInsertChunk
		chunk := extra[lo : lo+nlInsertChunk]
		rchunk := rects[round*nlRangeChunk : (round+1)*nlRangeChunk]
		for k := range modes {
			i := (round + k) % len(modes)
			ns, err := nlTimeLookups(trees[i], base, round)
			if err != nil {
				return nil, err
			}
			if round == 0 || ns < bestLookup[i] {
				bestLookup[i] = ns
			}
			ns, items, err := nlTimeRanges(trees[i], rchunk)
			if err != nil {
				return nil, err
			}
			if round == 0 || ns < bestRange[i] {
				bestRange[i] = ns
			}
			rangeItems[i] += items
			ns, err = nlTimeInserts(trees[i], chunk, uint64(nlTreeSize+lo))
			if err != nil {
				return nil, err
			}
			if round == 0 || ns < bestInsert[i] {
				bestInsert[i] = ns
			}
		}
	}

	rep := &NodeLayoutReport{
		Experiment:    "node-layout",
		TreeSize:      nlTreeSize,
		Dims:          nlDims,
		Rounds:        nlRounds,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		RangeSideFrac: nlSideFrac,
	}
	fmt.Fprintf(w, "%-10s %14s %14s %16s\n", "mode", "lookup ns/op", "insert ns/op", "range ns/query")
	for i, m := range modes {
		r := NodeLayoutResult{
			Mode:           m.name,
			LookupNsPerOp:  bestLookup[i],
			InsertNsPerOp:  bestInsert[i],
			RangeNsPerOp:   bestRange[i],
			RangeItems:     rangeItems[i],
			LookupsPerSec:  1e9 / bestLookup[i],
			RangesPerSec:   1e9 / bestRange[i],
			InsertedPerSec: 1e9 / bestInsert[i],
		}
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(w, "%-10s %14.1f %14.1f %16.1f\n", r.Mode, r.LookupNsPerOp, r.InsertNsPerOp, r.RangeNsPerOp)
	}
	if rangeItems[0] != rangeItems[1] {
		return nil, fmt.Errorf("bench: range result mismatch: scalar saw %d items, columnar %d", rangeItems[0], rangeItems[1])
	}

	delta := func(newV, oldV float64) float64 { return (newV - oldV) / oldV * 100 }
	impr := func(newV, oldV float64) float64 { return (oldV - newV) / oldV * 100 }
	rep.LookupDeltaPct = delta(bestLookup[1], bestLookup[0])
	rep.InsertDeltaPct = delta(bestInsert[1], bestInsert[0])
	rep.RangeDeltaPct = delta(bestRange[1], bestRange[0])
	rep.LookupImprovementPct = impr(bestLookup[1], bestLookup[0])
	rep.RangeImprovementPct = impr(bestRange[1], bestRange[0])
	// Noise floor 2%: best-round floors are stable well inside that.
	rep.Regression = rep.LookupDeltaPct > 2 || rep.InsertDeltaPct > 2 || rep.RangeDeltaPct > 2

	snap := trees[1].Metrics()
	rep.BatchTests = snap.Tree.Counters.BatchTests
	rep.NodeGapMoves = snap.Tree.Counters.NodeGapMoves

	fmt.Fprintf(w, "\ndelta (columnar vs scalar): lookup %+.1f%%, insert %+.1f%%, range %+.1f%%  (negative = faster)\n",
		rep.LookupDeltaPct, rep.InsertDeltaPct, rep.RangeDeltaPct)
	fmt.Fprintf(w, "columnar counters: batch_tests=%d node_gap_moves=%d; regression=%v\n",
		rep.BatchTests, rep.NodeGapMoves, rep.Regression)
	return rep, nil
}

func nlTimeLookups(tr *bvtree.Tree, pts []geometry.Point, round int) (float64, error) {
	off := round * nlLookupChunk
	start := time.Now()
	for i := 0; i < nlLookupChunk; i++ {
		if _, err := tr.Lookup(pts[(off+i)%len(pts)]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(nlLookupChunk), nil
}

func nlTimeInserts(tr *bvtree.Tree, pts []geometry.Point, payloadBase uint64) (float64, error) {
	start := time.Now()
	for i, p := range pts {
		if err := tr.Insert(p, payloadBase+uint64(i)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(len(pts)), nil
}

// nlTimeRanges runs one round's range queries and returns mean
// ns/query plus items delivered.
func nlTimeRanges(tr *bvtree.Tree, rects []geometry.Rect) (float64, uint64, error) {
	var items uint64
	start := time.Now()
	for _, r := range rects {
		if err := tr.RangeQuery(r, func(geometry.Point, uint64) bool {
			items++
			return true
		}); err != nil {
			return 0, 0, err
		}
	}
	return float64(time.Since(start)) / float64(len(rects)), items, nil
}
