package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/shard"
	"bvtree/internal/storage"
)

// proc is a child process the benchmark started. Every proc is tracked
// in live until it has been waited for, so an early exit can stop them.
type proc struct {
	cmd  *exec.Cmd
	out  *lockedBuffer
	done chan struct{}
	err  error
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var (
	liveMu sync.Mutex
	live   = map[*proc]struct{}{}
)

// startProc starts bin with args, capturing its combined output unless
// the caller wires stdout itself (stdout != nil).
func startProc(bin string, args []string, stdin io.Reader, stdout io.Writer) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), out: &lockedBuffer{}, done: make(chan struct{})}
	p.cmd.Stdin = stdin
	p.cmd.Stdout = p.out
	if stdout != nil {
		p.cmd.Stdout = stdout
	}
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	liveMu.Lock()
	live[p] = struct{}{}
	liveMu.Unlock()
	go func() {
		p.err = p.cmd.Wait()
		liveMu.Lock()
		delete(live, p)
		liveMu.Unlock()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends sig and waits for the process to exit, escalating to
// SIGKILL after grace.
func (p *proc) stop(sig syscall.Signal, grace time.Duration) error {
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not exit within %v of %v", filepath.Base(p.cmd.Path), grace, sig)
	}
	if sig == syscall.SIGKILL {
		return nil
	}
	if p.err != nil {
		return fmt.Errorf("%s: %v\n%s", filepath.Base(p.cmd.Path), p.err, p.out.String())
	}
	return nil
}

// killAll stops every process still running; used on the way out.
func killAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// freeAddr picks a free loopback port. bvserver prints its -addr flag,
// not the port it bound, so the benchmark chooses the port itself.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is a running cmd/bvserver.
type server struct {
	*proc
	addr string
	// ready is the time from exec to the first successful Ping.
	ready time.Duration
}

// startServer runs bvserver with its default flags on dir, listening on
// a free loopback port.
func startServer(bin, dir string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := startProc(bin, []string{"-data", dir, "-addr", addr}, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &server{proc: p, addr: addr}
	if err := waitReady(p, addr, 120*time.Second); err != nil {
		_ = p.stop(syscall.SIGKILL, time.Second)
		return nil, err
	}
	s.ready = time.Since(t0)
	return s, nil
}

// waitReady polls addr until a Ping succeeds, the process exits, or the
// timeout passes.
func waitReady(p *proc, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c, err := shard.Dial(addr); err == nil {
			c.Close()
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited before serving: %v\n%s", filepath.Base(p.cmd.Path), p.err, p.out.String())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving on %s after %v", filepath.Base(p.cmd.Path), addr, timeout)
		}
		// A refused dial costs microseconds; poll finely so the poll
		// interval does not quantise millisecond start times.
		time.Sleep(100 * time.Microsecond)
	}
}

// peakRSSMB returns the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusField(pid, "VmHWM")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0, err
	}
	return n / 1024, nil
}

func procStatusField(pid int, key string) (string, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// cpusAllowed counts the CPUs in a process's affinity mask: the
// GOMAXPROCS a Go process picks when the variable is unset.
func cpusAllowed(pid int) int {
	v, err := procStatusField(pid, "Cpus_allowed_list")
	if err != nil {
		return 0
	}
	n := 0
	for _, part := range strings.Split(v, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err1 := strconv.Atoi(lo)
		b := a
		var err2 error
		if isRange {
			b, err2 = strconv.Atoi(hi)
		}
		if err1 == nil && err2 == nil {
			n += b - a + 1
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir, in total and
// by file name (tree.db, tree.wal, ...).
func dirBytes(dir string) (int64, map[string]int64, error) {
	var total int64
	byName := map[string]int64{}
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		byName[d.Name()] += info.Size()
		return nil
	})
	return total, byName, err
}

// createCluster starts bvserver on an empty dir, so that it writes its
// plan and empty shard stores exactly as a first start does, and stops
// it cleanly.
func createCluster(bin, dir string) error {
	s, err := startServer(bin, dir)
	if err != nil {
		return err
	}
	return s.stop(syscall.SIGTERM, 60*time.Second)
}

func readPlan(dir string) (shard.Plan, error) {
	var plan shard.Plan
	blob, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		return plan, err
	}
	return plan, json.Unmarshal(blob, &plan)
}

// shardStats is one shard's structure as CollectStats reports it.
type shardStats struct {
	Items      int
	Height     int
	DataMinOcc float64
	IndexMin   float64
}

func collectShardStats(t *bvtree.Tree) (shardStats, error) {
	ts, err := t.CollectStats()
	if err != nil {
		return shardStats{}, err
	}
	s := shardStats{Items: ts.Items, Height: ts.Height, DataMinOcc: ts.DataMinOcc, IndexMin: -1}
	for _, lv := range ts.IndexLevels {
		if s.IndexMin < 0 || lv.MinOccPct < s.IndexMin {
			s.IndexMin = lv.MinOccPct
		}
	}
	return s, nil
}

// openShard opens shard i of a cluster directory the way cmd/bvserver's
// openEngines does (same tree, WAL and store options), optionally
// through the tracing seams.
func openShard(dir string, i int, tr *tracer) (*bvtree.DurableTree, func() error, error) {
	sd := filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
	fopt := storage.FileStoreOptions{PinDirty: true}
	if tr != nil {
		fopt.FS = tr.fs
	}
	fst, err := storage.OpenFileStore(filepath.Join(sd, "tree.db"), fopt)
	if err != nil {
		return nil, nil, fmt.Errorf("shard %04d: %w", i, err)
	}
	var st storage.Store = fst
	dopt := bvtree.DurableOptions{Metrics: true}
	var d *bvtree.DurableTree
	walPath := filepath.Join(sd, "tree.wal")
	if tr != nil {
		st = tr.wrapStore(fst)
		d, err = openTracedDurable(tr, st, walPath, dopt)
	} else {
		d, err = bvtree.OpenDurableOpts(st, walPath, 0, dopt)
	}
	if err != nil {
		fst.Close()
		return nil, nil, fmt.Errorf("shard %04d: %w", i, err)
	}
	return d, func() error { return errors.Join(d.Close(), fst.Close()) }, nil
}

// preload fills a freshly created cluster with the first n points of
// pts through DurableTree.ApplyBatch, routed by the cluster's own plan,
// and closes it (which checkpoints every shard). Shards load one after
// another, so each shard's load is timed alone: its wall time and the
// process CPU time it took.
func preload(dir string, pts *pointSet, n, batch int) (wall, cpu []time.Duration, stats []shardStats, err error) {
	plan, err := readPlan(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	engines := make([]shard.Engine, plan.Shards())
	for i := range engines {
		engines[i] = nopEngine{}
	}
	router, err := shard.NewRouter(plan, engines)
	if err != nil {
		return nil, nil, nil, err
	}
	parts := make([][]bvtree.BatchOp, plan.Shards())
	for i := 0; i < n; i++ {
		p := pts.at(i)
		s, err := router.ShardFor(p)
		if err != nil {
			return nil, nil, nil, err
		}
		parts[s] = append(parts[s], bvtree.BatchOp{Point: p, Payload: uint64(i)})
	}
	for i := range parts {
		runtime.GC() // leave no garbage of the last shard to this one
		t0, c0 := time.Now(), selfCPU()
		if err := loadShard(dir, i, parts[i], batch); err != nil {
			return nil, nil, nil, err
		}
		wall = append(wall, time.Since(t0))
		cpu = append(cpu, selfCPU()-c0)
		st, err := shardStructure(dir, i)
		if err != nil {
			return nil, nil, nil, err
		}
		stats = append(stats, st)
	}
	return wall, cpu, stats, nil
}

func loadShard(dir string, i int, ops []bvtree.BatchOp, batch int) error {
	d, closeFn, err := openShard(dir, i, nil)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(ops); lo += batch {
		if err := d.ApplyBatch(ops[lo:min(lo+batch, len(ops))]); err != nil {
			closeFn()
			return err
		}
	}
	return closeFn()
}

// selfCPU is the CPU time this process has used, all threads.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+system CPU time process pid has used, from
// /proc/<pid>/stat (utime and stime, in USER_HZ = 100 ticks a second).
func procCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(blob)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / 100, nil
}

// shardStructure reopens one closed shard and walks it.
func shardStructure(dir string, i int) (shardStats, error) {
	d, closeFn, err := openShard(dir, i, nil)
	if err != nil {
		return shardStats{}, err
	}
	st, err := collectShardStats(d.Tree)
	return st, errors.Join(err, closeFn())
}

// nopEngine lets the preloader use the router's placement logic alone.
type nopEngine struct{ shard.Engine }

// copyTree copies a stopped cluster directory.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// envInfo is recorded with every run.
type envInfo struct {
	NProc            int
	ClientGOMAXPROCS int
	ServerGOMAXPROCS string
	GoClient         string
	GoServer         string
	Commit           string
}

func collectEnv(root, serverBin string, serverPID int) envInfo {
	e := envInfo{
		NProc:            runtime.NumCPU(),
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		GoClient:         runtime.Version(),
		Commit:           commitOf(root),
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		e.ServerGOMAXPROCS = v + " (inherited GOMAXPROCS)"
	} else {
		e.ServerGOMAXPROCS = fmt.Sprintf("%d (unset; CPUs in its affinity mask)", cpusAllowed(serverPID))
	}
	if bi, err := buildinfo.ReadFile(serverBin); err == nil {
		e.GoServer = bi.GoVersion
	}
	return e
}

// commitOf names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(blob))
		h.Write(blob)
	}
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil)[:12])
}

// readLine reads one line from a child's stdout.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	return strings.TrimSpace(line), err
}
