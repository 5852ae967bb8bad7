package bvtree

// The tree's shape must depend on its input alone: two builds of the same
// point stream, through the same mutation path, give the same tree. Run
// under `make verify` at -cpu 1,2,4 like the rest of the package.

import (
	"fmt"
	"testing"

	"bvtree/internal/workload"
)

// TestDeterministicBuild builds the same clustered input twice per
// ingest path — per-op inserts, and ApplyBatch in batches of 512 — and
// requires identical CollectStats and Dump output.
func TestDeterministicBuild(t *testing.T) {
	pts, err := workload.Generate(workload.Clustered, 2, 20000, 91)
	if err != nil {
		t.Fatal(err)
	}
	build := func(t *testing.T, batched bool) (stats, dump string) {
		t.Helper()
		tr, err := New(Options{Dims: 2, DataCapacity: 8, Fanout: 8})
		if err != nil {
			t.Fatal(err)
		}
		if batched {
			for lo := 0; lo < len(pts); lo += 512 {
				ops := make([]BatchOp, 0, 512)
				for i := lo; i < len(pts) && i < lo+512; i++ {
					ops = append(ops, BatchOp{Point: pts[i], Payload: uint64(i)})
				}
				if err := tr.ApplyBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i, p := range pts {
				if err := tr.Insert(p, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		s, err := tr.CollectStats()
		if err != nil {
			t.Fatal(err)
		}
		levels := ""
		for x := 1; x <= s.Height; x++ {
			levels += fmt.Sprintf(" L%d%+v", x, *s.IndexLevels[x])
		}
		s.IndexLevels = nil // printed above by value, not by address
		d, err := tr.Dump()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v%s", *s, levels), d
	}
	for _, batched := range []bool{false, true} {
		name := "insert"
		if batched {
			name = "batch512"
		}
		t.Run(name, func(t *testing.T) {
			s1, d1 := build(t, batched)
			s2, d2 := build(t, batched)
			if s1 != s2 {
				t.Fatalf("two builds of one input differ:\n%s\n%s", s1, s2)
			}
			if d1 != d2 {
				t.Fatal("two builds of one input have different Dump output")
			}
		})
	}
}
