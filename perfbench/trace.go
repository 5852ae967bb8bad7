package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/obs"
	"bvtree/internal/page"
	"bvtree/internal/shard"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/wal"
)

// The traced server is this binary run as "perfbench serve": the same
// shard stack as cmd/bvserver's openEngines, with each layer wrapped at
// its public seam so the benchmark can time it from outside —
// shard.Engine (tree), storage.Store (buffer pool and slot I/O) and
// vfs.FS (device) — plus read-outs of Server.Metrics and
// DurableTree.Metrics. It serves on loopback in its own process, like
// bvserver, and answers "snap" on stdin with one JSON layerSnap line.

// busy accumulates one layer's call count and time: the sum of call
// durations, and the union of the intervals in which at least one call
// was running (wall time the layer was busy).
type busy struct {
	calls atomic.Uint64
	sumNs atomic.Uint64

	mu      sync.Mutex
	active  int
	since   time.Time
	unionNs uint64
}

func (b *busy) enter() time.Time {
	now := time.Now()
	b.mu.Lock()
	if b.active == 0 {
		b.since = now
	}
	b.active++
	b.mu.Unlock()
	return now
}

func (b *busy) exit(start time.Time) {
	now := time.Now()
	b.calls.Add(1)
	b.sumNs.Add(uint64(now.Sub(start)))
	b.mu.Lock()
	b.active--
	if b.active == 0 {
		b.unionNs += uint64(now.Sub(b.since))
	}
	b.mu.Unlock()
}

type busySnap struct {
	Calls   uint64 `json:"calls"`
	SumNs   uint64 `json:"sum_ns"`
	UnionNs uint64 `json:"union_ns"`
}

func (b *busy) snap() busySnap {
	b.mu.Lock()
	u := b.unionNs
	if b.active > 0 {
		u += uint64(time.Since(b.since))
	}
	b.mu.Unlock()
	return busySnap{Calls: b.calls.Load(), SumNs: b.sumNs.Load(), UnionNs: u}
}

// tracer holds the counters of every wrapped seam of one server.
type tracer struct {
	engine [numClasses]busy

	storeRead  busy          // ReadNode and ReadNodes calls
	storeNodes atomic.Uint64 // nodes returned by them
	storeOther busy          // Alloc, WriteNode, Free, Sync

	fs *countFS
}

func newTracer() *tracer { return &tracer{fs: &countFS{inner: vfs.OS{}}} }

// tracedEngine times every engine call by op class. Embedding the
// durable tree keeps its Metrics method visible to the router.
type tracedEngine struct {
	*bvtree.DurableTree
	tr *tracer
}

func (e tracedEngine) Insert(p geometry.Point, payload uint64) error {
	b := &e.tr.engine[clsInsert]
	defer b.exit(b.enter())
	return e.DurableTree.Insert(p, payload)
}

func (e tracedEngine) Lookup(p geometry.Point) ([]uint64, error) {
	b := &e.tr.engine[clsLookup]
	defer b.exit(b.enter())
	return e.DurableTree.Lookup(p)
}

func (e tracedEngine) RangeQuery(r geometry.Rect, visit bvtree.Visitor) error {
	b := &e.tr.engine[clsRange]
	defer b.exit(b.enter())
	return e.DurableTree.RangeQuery(r, visit)
}

func (e tracedEngine) Count(r geometry.Rect) (int, error) {
	b := &e.tr.engine[clsCount]
	defer b.exit(b.enter())
	return e.DurableTree.Count(r)
}

func (e tracedEngine) Nearest(p geometry.Point, k int) ([]bvtree.Neighbor, error) {
	b := &e.tr.engine[clsNearest]
	defer b.exit(b.enter())
	return e.DurableTree.Nearest(p, k)
}

// tracedStore times the page store. It forwards the optional
// BatchReader and Prefetcher seams: without them the range engine
// would silently fall back to point reads.
type tracedStore struct {
	storage.Store
	br storage.BatchReader
	pf storage.Prefetcher
	tr *tracer
}

func (t *tracer) wrapStore(st *storage.FileStore) storage.Store {
	return &tracedStore{Store: st, br: st, pf: st, tr: t}
}

func (s *tracedStore) ReadNode(id page.ID) ([]byte, error) {
	defer s.tr.storeRead.exit(s.tr.storeRead.enter())
	s.tr.storeNodes.Add(1)
	return s.Store.ReadNode(id)
}

func (s *tracedStore) ReadNodes(ids []page.ID) ([][]byte, error) {
	defer s.tr.storeRead.exit(s.tr.storeRead.enter())
	s.tr.storeNodes.Add(uint64(len(ids)))
	return s.br.ReadNodes(ids)
}

func (s *tracedStore) Prefetch(ids []page.ID) { s.pf.Prefetch(ids) }

func (s *tracedStore) Alloc() (page.ID, error) {
	defer s.tr.storeOther.exit(s.tr.storeOther.enter())
	return s.Store.Alloc()
}

func (s *tracedStore) WriteNode(id page.ID, blob []byte) error {
	defer s.tr.storeOther.exit(s.tr.storeOther.enter())
	return s.Store.WriteNode(id, blob)
}

func (s *tracedStore) Free(id page.ID) error {
	defer s.tr.storeOther.exit(s.tr.storeOther.enter())
	return s.Store.Free(id)
}

func (s *tracedStore) Sync() error {
	defer s.tr.storeOther.exit(s.tr.storeOther.enter())
	return s.Store.Sync()
}

// countFS counts device traffic under the store and the WAL.
type countFS struct {
	inner vfs.FS

	reads      atomic.Uint64
	writeBytes atomic.Uint64
	sync       busy
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFile) Read(p []byte) (int, error) {
	f.fs.reads.Add(1)
	return f.File.Read(p)
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads.Add(1)
	return f.File.ReadAt(p, off)
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) Sync() error {
	defer f.fs.sync.exit(f.fs.sync.enter())
	return f.File.Sync()
}

func openTracedDurable(tr *tracer, st storage.Store, walPath string, dopt bvtree.DurableOptions) (*bvtree.DurableTree, error) {
	l, err := wal.OpenFS(tr.fs, walPath)
	if err != nil {
		return nil, err
	}
	return bvtree.OpenDurableLogOpts(st, l, 0, dopt)
}

// layerSnap is one cumulative read-out of the traced server.
type layerSnap struct {
	Server     shard.ServerMetricsSnapshot `json:"server"`
	Shards     []obs.Snapshot              `json:"shards"`
	LogBytes   int64                       `json:"log_bytes"`
	Engine     [numClasses]busySnap        `json:"engine"`
	StoreRead  busySnap                    `json:"store_read"`
	StoreNodes uint64                      `json:"store_nodes"`
	StoreOther busySnap                    `json:"store_other"`
	FSReads    uint64                      `json:"fs_reads"`
	FSWriteB   uint64                      `json:"fs_write_bytes"`
	FSSync     busySnap                    `json:"fs_sync"`
	AllocBytes uint64                      `json:"alloc_bytes"`
	Heights    []int                       `json:"heights,omitempty"`
}

// serve runs the traced server on a stopped cluster directory until its
// stdin closes. Commands: "snap" prints a layerSnap, "stats" prints one
// with shard heights from CollectStats.
func serve(dir string) error {
	plan, err := readPlan(dir)
	if err != nil {
		return err
	}
	tr := newTracer()
	engines := make([]shard.Engine, plan.Shards())
	trees := make([]*bvtree.DurableTree, plan.Shards())
	var closers []func() error
	closeAll := func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			errs = append(errs, closers[i]())
		}
		return errors.Join(errs...)
	}
	for i := range engines {
		d, closeFn, err := openShard(dir, i, tr)
		if err != nil {
			closeAll()
			return err
		}
		closers = append(closers, closeFn)
		trees[i] = d
		engines[i] = tracedEngine{DurableTree: d, tr: tr}
	}
	router, err := shard.NewRouter(plan, engines)
	if err != nil {
		closeAll()
		return err
	}
	srv := shard.NewServer(router, shard.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeAll()
		return err
	}
	go srv.Serve(ln)
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "addr %s\n", ln.Addr())
	out.Flush()

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		s := layerSnap{
			Server:     srv.Metrics(),
			StoreRead:  tr.storeRead.snap(),
			StoreNodes: tr.storeNodes.Load(),
			StoreOther: tr.storeOther.snap(),
			FSReads:    tr.fs.reads.Load(),
			FSWriteB:   tr.fs.writeBytes.Load(),
			FSSync:     tr.fs.sync.snap(),
		}
		for c := range s.Engine {
			s.Engine[c] = tr.engine[c].snap()
		}
		for _, d := range trees {
			s.Shards = append(s.Shards, d.Metrics())
			s.LogBytes += d.LogSize()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes = ms.TotalAlloc
		if in.Text() == "stats" {
			for _, d := range trees {
				st, err := collectShardStats(d.Tree)
				if err != nil {
					return err
				}
				s.Heights = append(s.Heights, st.Height)
			}
		}
		blob, err := json.Marshal(s)
		if err != nil {
			return err
		}
		out.Write(append(blob, '\n'))
		out.Flush()
	}
	return errors.Join(srv.Close(), closeAll())
}

// tracedServer is a running "perfbench serve" child.
type tracedServer struct {
	*proc
	addr          string
	stdin, stdout *os.File
	out           *bufio.Reader
}

func startTraced(self, dir string) (*tracedServer, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	p, err := startProc(self, []string{"serve", "-data", dir}, inR, outW)
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	t := &tracedServer{proc: p, stdin: inW, stdout: outR, out: bufio.NewReaderSize(outR, 1<<20)}
	line, err := readLine(t.out)
	addr, ok := strings.CutPrefix(line, "addr ")
	if !ok || err != nil {
		t.close()
		return nil, fmt.Errorf("traced server did not start: %q %v\n%s", line, err, p.out.String())
	}
	t.addr = addr
	return t, nil
}

// snap asks the child for a read-out ("snap" or "stats").
func (t *tracedServer) snap(cmd string) (layerSnap, error) {
	var s layerSnap
	if _, err := fmt.Fprintln(t.stdin, cmd); err != nil {
		return s, err
	}
	line, err := readLine(t.out)
	if err != nil {
		return s, fmt.Errorf("traced server: %v\n%s", err, t.proc.out.String())
	}
	return s, json.Unmarshal([]byte(line), &s)
}

// close shuts the child down cleanly (it checkpoints every shard) and
// waits for it.
func (t *tracedServer) close() error {
	t.stdin.Close()
	defer t.stdout.Close()
	select {
	case <-t.done:
	case <-time.After(120 * time.Second):
		_ = t.cmd.Process.Kill()
		<-t.done
		return errors.New("traced server did not exit")
	}
	if t.err != nil {
		return fmt.Errorf("traced server: %v\n%s", t.err, t.proc.out.String())
	}
	return nil
}
