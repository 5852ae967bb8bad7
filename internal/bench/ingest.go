package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/workload"
)

// IngestReport is the JSON artifact emitted by bvbench -ingest. It
// compares durable ingestion throughput on one writer across the write
// disciplines the tree offers: acknowledged-per-operation inserts (the
// baseline), z-sorted batches, and the sampling-based parallel
// BulkLoad. Every mode loads the same points into a fresh file-backed
// durable tree and is measured to full durability. The speedup column
// is throughput relative to the serial row; rows that depend on CPU
// parallelism are flagged saturated when GOMAXPROCS leaves them no
// headroom, so single-CPU runs do not overstate the parallel build.
type IngestReport struct {
	Experiment string         `json:"experiment"`
	N          int            `json:"n"`
	Dims       int            `json:"dims"`
	BatchSize  int            `json:"batch_size"`
	CPUs       int            `json:"cpus"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Results    []IngestResult `json:"results"`
}

// IngestResult is one ingestion discipline's row.
type IngestResult struct {
	Mode      string  `json:"mode"`
	Ops       int     `json:"ops"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup"` // vs the serial row
	// Saturated marks rows whose discipline wants more CPUs than
	// GOMAXPROCS provides; their numbers are a floor, not the mode's
	// potential.
	Saturated bool `json:"saturated,omitempty"`
}

const ingestBatchSize = 1024

// RunIngest measures durable single-writer ingestion of n uniform 2-D
// points under each write discipline. Progress goes to w; the returned
// report is what bvbench serialises to BENCH_ingest.json.
func RunIngest(w io.Writer, n int) (*IngestReport, error) {
	if n < 1 {
		n = 1
	}
	const dims = 2
	pts, err := workload.Generate(workload.Uniform, dims, n, 42)
	if err != nil {
		return nil, err
	}
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(i)
	}

	rep := &IngestReport{
		Experiment: "ingest",
		N:          n,
		Dims:       dims,
		BatchSize:  ingestBatchSize,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(w, "ingest: %d points, %d CPUs, GOMAXPROCS=%d\n", n, rep.CPUs, rep.GoMaxProcs)
	fmt.Fprintf(w, "%-16s %10s %10s %12s %9s\n", "mode", "ops", "secs", "ops/sec", "speedup")

	modes := []struct {
		name string
		// parallel marks disciplines that scale with CPU count.
		parallel bool
		run      func(d *bvtree.DurableTree) error
	}{
		{name: "serial", run: func(d *bvtree.DurableTree) error {
			for i := range pts {
				if err := d.Insert(pts[i], payloads[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{name: "batch", run: func(d *bvtree.DurableTree) error {
			return ingestBatches(d, pts, payloads)
		}},
		{name: "bulkload", parallel: true, run: func(d *bvtree.DurableTree) error {
			return d.BulkLoad(pts, payloads)
		}},
	}

	var base float64
	for _, m := range modes {
		res, err := runIngestMode(n, m.run)
		if err != nil {
			return nil, fmt.Errorf("ingest %s: %w", m.name, err)
		}
		res.Mode = m.name
		if base == 0 {
			base = res.OpsPerSec
		}
		res.Speedup = res.OpsPerSec / base
		res.Saturated = m.parallel && rep.GoMaxProcs < 2
		rep.Results = append(rep.Results, *res)
		note := ""
		if res.Saturated {
			note = "  (saturated)"
		}
		fmt.Fprintf(w, "%-16s %10d %10.2f %12.0f %8.2fx%s\n",
			res.Mode, res.Ops, res.Seconds, res.OpsPerSec, res.Speedup, note)
	}
	return rep, nil
}

func ingestBatches(d *bvtree.DurableTree, pts []geometry.Point, payloads []uint64) error {
	for b := 0; b < len(pts); b += ingestBatchSize {
		e := b + ingestBatchSize
		if e > len(pts) {
			e = len(pts)
		}
		if err := d.InsertBatch(pts[b:e], payloads[b:e]); err != nil {
			return err
		}
	}
	return nil
}

// runIngestMode times one discipline against a fresh file-backed durable
// tree; the clock stops when every operation is acknowledged durable.
func runIngestMode(n int, run func(d *bvtree.DurableTree) error) (*IngestResult, error) {
	dir, err := os.MkdirTemp("", "bvbench-ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := storage.CreateFileStore(filepath.Join(dir, "t.db"),
		storage.FileStoreOptions{PinDirty: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	d, err := bvtree.NewDurable(st, filepath.Join(dir, "t.wal"),
		bvtree.Options{Dims: 2, DataCapacity: 16, Fanout: 16})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := run(d); err != nil {
		d.Close()
		return nil, err
	}
	secs := time.Since(start).Seconds()
	if got := d.Len(); got != n {
		d.Close()
		return nil, fmt.Errorf("tree holds %d items after %d inserts", got, n)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return &IngestResult{
		Ops:       n,
		Seconds:   secs,
		OpsPerSec: float64(n) / secs,
	}, nil
}
