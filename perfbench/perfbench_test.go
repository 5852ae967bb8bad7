package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/shard"
	"bvtree/internal/workload"
)

// TestMain lets the test binary stand in for perfbench when the traced
// smoke runs start it as "serve".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bvserver")
	out, err := exec.Command("go", "build", "-o", bin, "bvtree/cmd/bvserver").CombinedOutput()
	if err != nil {
		t.Fatalf("build bvserver: %v\n%s", err, out)
	}
	return bin
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced,
// and checks each emits exactly the metrics BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bvserver clusters")
	}
	e2e, layers := benchmarkNames(t)
	sort.Strings(e2e)
	sort.Strings(layers)
	bin := buildServer(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"lookup", "scan"} {
		for _, trace := range []bool{false, true} {
			var log strings.Builder
			cfg := config{
				workload:   wl,
				seed:       7,
				measure:    1500 * time.Millisecond,
				warmup:     300 * time.Millisecond,
				trace:      trace,
				bvserver:   bin,
				self:       self,
				root:       "..",
				work:       t.TempDir(),
				preloadN:   40000,
				minSamples: 50,
				out:        &log,
			}
			res, err := run(cfg)
			killAll()
			if err != nil || res == nil || !res.Correct {
				t.Fatalf("%s trace=%v: %v\n%s", wl, trace, err, log.String())
			}
			want := e2e
			if trace {
				want = layers
			}
			if got := keys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v emitted %v, BENCHMARK.json names %v", wl, trace, got, want)
			}
			for _, name := range want {
				if !strings.Contains(log.String(), "metric "+name+" ") {
					t.Errorf("%s trace=%v did not print %s", wl, trace, name)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", wl, trace, res.Attempted, res.Failed)
			}
		}
	}
}

// TestLayoutMatchesGenerator checks the benchmark draws from the same
// clustered layout bvserver samples for its shard plan.
func TestLayoutMatchesGenerator(t *testing.T) {
	want, err := workload.Generate(workload.Clustered, dims, 200, layoutSeed)
	if err != nil {
		t.Fatal(err)
	}
	centers, scales, src := clusterLayout(layoutSeed)
	for i, w := range want {
		if got := drawClustered(&centers, &scales, src); !geometry.Point(got[:]).Equal(w) {
			t.Fatalf("point %d: layout draw %v, workload.Generate %v", i, got, w)
		}
	}
}

// dropEngine loses the first item of every range traversal and
// undercounts by one: a wrong engine the checks must catch.
type dropEngine struct{ shard.Engine }

func (e dropEngine) RangeQuery(r geometry.Rect, visit bvtree.Visitor) error {
	first := true
	return e.Engine.RangeQuery(r, func(p geometry.Point, payload uint64) bool {
		if first {
			first = false
			return true
		}
		return visit(p, payload)
	})
}

func (e dropEngine) Count(r geometry.Rect) (int, error) {
	n, err := e.Engine.Count(r)
	if n > 0 {
		n--
	}
	return n, err
}

// TestChecksCatchDroppedItem runs the Range and Count checks against a
// router whose engines drop one item, and against an honest one.
func TestChecksCatchDroppedItem(t *testing.T) {
	const n = 20000
	all, err := genPoints(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := shard.PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	honest := make([]shard.Engine, plan.Shards())
	dropping := make([]shard.Engine, plan.Shards())
	for i := range honest {
		tr, err := bvtree.New(bvtree.Options{Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		honest[i], dropping[i] = tr, dropEngine{tr}
	}
	good, err := shard.NewRouter(plan, honest)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := shard.NewRouter(plan, dropping)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := good.Insert(all.at(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	windows := makeWindows(newXIndex(all, 0, n), nil, 20, 5)
	rangeOf := func(r *shard.Router, w *window) ([]geometry.Point, []uint64) {
		var pts []geometry.Point
		var pays []uint64
		if err := r.RangeQuery(w.rect, func(p geometry.Point, pay uint64) bool {
			pts, pays = append(pts, p.Clone()), append(pays, pay)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return pts, pays
	}
	for i := range windows {
		w := &windows[i]
		pts, pays := rangeOf(good, w)
		if err := checkRange(all, n, w, pts, pays, 0, 0); err != nil {
			t.Fatalf("honest range failed the check: %v", err)
		}
		pts, pays = rangeOf(bad, w)
		if err := checkRange(all, n, w, pts, pays, 0, 0); err == nil {
			t.Fatalf("range missing an item passed the check (window %d, %d items)", i, len(w.preload))
		}
		c, err := bad.Count(w.rect)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCount(n, w, c, 0, 0); err == nil {
			t.Fatalf("count missing an item passed the check")
		}
	}
}
