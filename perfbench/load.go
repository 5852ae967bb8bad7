package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/shard"
	"bvtree/internal/workload"
)

// opClass is a request type of the wire protocol.
type opClass int

const (
	clsInsert opClass = iota
	clsLookup
	clsRange
	clsCount
	clsNearest
	numClasses
)

var classNames = [numClasses]string{"insert", "lookup", "range", "count", "nearest"}

// recorder collects one connection's client-side latencies.
type recorder struct {
	lat       [numClasses][]int64 // ns, ops started inside the window
	at        [numClasses][]int64 // their start, ns after the window opened
	attempted int
	failed    int
	firstErr  error
}

func (r *recorder) observe(c opClass, at, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat[c] = append(r.lat[c], int64(d))
	r.at[c] = append(r.at[c], int64(at))
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.at[c] = append(r.at[c], o.at[c]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// reads counts the completed read requests (every class but Insert).
func (r *recorder) reads() int {
	n := 0
	for c, l := range r.lat {
		if opClass(c) != clsInsert {
			n += len(l)
		}
	}
	return n
}

// quantileUS returns the q-quantile of a class's latencies in µs.
func (r *recorder) quantileUS(c opClass, q float64) float64 {
	return quantileUS(append([]int64(nil), r.lat[c]...), q)
}

// quantileUS returns the q-quantile of ns samples in µs, by the
// nearest-rank method. It sorts l.
func quantileUS(l []int64, q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	i := int(q*float64(len(l))+0.5) - 1
	i = max(0, min(i, len(l)-1))
	return float64(l[i]) / 1e3
}

// sliced splits the measured window into k equal slices and returns,
// per slice, the throughput of read requests and the p50 and p99
// latency of class c. Reporting the median slice keeps a passing
// disturbance on the shared machine (a neighbour's fsync burst, a GC)
// from moving the whole run's figure. Inserts are left out of the
// throughput: scan paces its writer, so their rate is fixed and would
// only dilute the reader's.
func (r *recorder) sliced(c opClass, window time.Duration, k int) (ops, p50, p99 []float64) {
	width := int64(window) / int64(k)
	slot := func(at int64) int { return min(int(at/width), k-1) }
	counts := make([]int, k)
	for cl := range r.at {
		if opClass(cl) == clsInsert {
			continue
		}
		for _, at := range r.at[cl] {
			counts[slot(at)]++
		}
	}
	lats := make([][]int64, k)
	for i, at := range r.at[c] {
		lats[slot(at)] = append(lats[slot(at)], r.lat[c][i])
	}
	for i := 0; i < k; i++ {
		ops = append(ops, float64(counts[i])/(float64(width)/1e9))
		p50 = append(p50, quantileUS(lats[i], 0.50))
		p99 = append(p99, quantileUS(lats[i], 0.99))
	}
	return ops, p50, p99
}

func (r *recorder) meanUS(c opClass) float64 {
	l := r.lat[c]
	if len(l) == 0 {
		return 0
	}
	var s int64
	for _, v := range l {
		s += v
	}
	return float64(s) / float64(len(l)) / 1e3
}

// phase is the time frame of one measured load: connections run from
// start, latencies count only for operations begun in [t0, t1).
type phase struct {
	t0, t1 time.Time
}

func newPhase(warmup, measure time.Duration) phase {
	t0 := time.Now().Add(warmup)
	return phase{t0: t0, t1: t0.Add(measure)}
}

// wrongAnswer records the first failed correctness check of a load.
type wrongAnswer struct {
	once sync.Once
	err  error
}

func (w *wrongAnswer) set(err error) { w.once.Do(func() { w.err = err }) }

// connLoop is one connection's closed loop over the phase. It reports
// a wrong answer through bad and returns.
type connLoop func(c *shard.Client, rec *recorder, ph phase, bad *wrongAnswer)

// runLoad dials one client per loop and runs each loop on its own
// connection until ph.t1. Every workload runs two: one per CPU of the
// 2-CPU machine the benchmark was sized on, shared by client and server.
func runLoad(addr string, ph phase, loops []connLoop) (*recorder, error) {
	clients := make([]*shard.Client, len(loops))
	for i := range clients {
		c, err := shard.Dial(addr)
		if err != nil {
			for _, o := range clients[:i] {
				o.Close()
			}
			return nil, err
		}
		clients[i] = c
	}
	recs := make([]recorder, len(loops))
	var bad wrongAnswer
	var wg sync.WaitGroup
	for i := range loops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loops[i](clients[i], &recs[i], ph, &bad)
		}(i)
	}
	wg.Wait()
	for _, c := range clients {
		c.Close()
	}
	total := &recorder{}
	for i := range recs {
		total.merge(&recs[i])
	}
	if bad.err != nil {
		return total, fmt.Errorf("wrong answer: %w", bad.err)
	}
	return total, nil
}

// timed runs op and reports its latency to rec if it began inside the
// measured window. It returns false once the phase is over.
func timed(rec *recorder, ph phase, c opClass, op func() error) (bool, error) {
	start := time.Now()
	if !start.Before(ph.t1) {
		return false, nil
	}
	err := op()
	if !start.Before(ph.t0) {
		rec.observe(c, start.Sub(ph.t0), time.Since(start), err)
	}
	return true, err
}

// lookupLoops: both connections look up preloaded points drawn
// uniformly, each checking the stored payload comes back.
func lookupLoops(pts *pointSet, n int, seed uint64) []connLoop {
	mk := func(k uint64) connLoop {
		return func(c *shard.Client, rec *recorder, ph phase, bad *wrongAnswer) {
			src := workload.NewSource(seed*31 + k)
			for {
				i := src.Intn(n)
				var got []uint64
				more, err := timed(rec, ph, clsLookup, func() (err error) {
					got, err = c.Lookup(pts.at(i))
					return err
				})
				if !more {
					return
				}
				if err == nil && (len(got) != 1 || got[0] != uint64(i)) {
					bad.set(fmt.Errorf("lookup of point %d returned %v", i, got))
					return
				}
			}
		}
	}
	return []connLoop{mk(1), mk(2)}
}

// scanState is shared between the scan workload's reader and writer:
// the writer inserts the live stream in order, so acknowledged inserts
// always form a prefix of it.
type scanState struct {
	all      *pointSet
	preloadN int
	windows  []window
	probes   []probe
	issued   atomic.Int64 // live inserts sent
	acked    atomic.Int64 // live inserts acknowledged (a prefix)
}

// writerRate is the pace of scan's writer, in inserts per second: well
// under what one connection sustains (its inserts wait for a WAL fsync;
// at 1,000 a second a writer slowed by a busy machine fell behind), so
// the write load and the data volume a run adds are the same from run
// to run whatever the device and the machine do meanwhile.
const writerRate = 500

// scanLoops: one reader sending Range 70% / Count 20% / Nearest 10%
// over precomputed windows, and one writer inserting the live stream at
// writerRate. The writer is still a closed loop — it waits for each
// reply — with the pause to its next slot as think time; behind
// schedule, it sends at once.
func scanLoops(s *scanState, seed uint64) []connLoop {
	reader := func(c *shard.Client, rec *recorder, ph phase, bad *wrongAnswer) {
		src := workload.NewSource(seed*31 + 3)
		for {
			u := src.Float64()
			acked := int(s.acked.Load())
			var (
				more  bool
				err   error
				check func(issued int) error
			)
			switch {
			case u < 0.7:
				w := &s.windows[src.Intn(len(s.windows))]
				more, err = timed(rec, ph, clsRange, func() error {
					pts, pays, trunc, err := c.Range(w.rect, 0)
					if err == nil {
						check = func(issued int) error {
							if trunc {
								return errors.New("range answer truncated")
							}
							return checkRange(s.all, s.preloadN, w, pts, pays, acked, issued)
						}
					}
					return err
				})
			case u < 0.9:
				w := &s.windows[src.Intn(len(s.windows))]
				more, err = timed(rec, ph, clsCount, func() error {
					n, err := c.Count(w.rect)
					check = func(issued int) error { return checkCount(s.preloadN, w, n, acked, issued) }
					return err
				})
			default:
				pr := &s.probes[src.Intn(len(s.probes))]
				more, err = timed(rec, ph, clsNearest, func() error {
					ns, err := c.Nearest(pr.center, nearestK)
					check = func(issued int) error {
						d := make([]float64, len(ns))
						pts := make([]geometry.Point, len(ns))
						pays := make([]uint64, len(ns))
						for i, nb := range ns {
							d[i], pts[i], pays[i] = nb.Dist, nb.Point, nb.Payload
						}
						return checkNearest(s.all, s.preloadN, pr, d, pts, pays, issued)
					}
					return err
				})
			}
			if !more {
				return
			}
			if err == nil && check != nil {
				if cerr := check(int(s.issued.Load())); cerr != nil {
					bad.set(cerr)
					return
				}
			}
		}
	}
	writer := func(c *shard.Client, rec *recorder, ph phase, bad *wrongAnswer) {
		start := time.Now()
		for {
			j := int(s.issued.Load())
			time.Sleep(time.Until(start.Add(time.Duration(j) * time.Second / writerRate)))
			if s.preloadN+j >= s.all.len() {
				bad.set(fmt.Errorf("live insert stream of %d points exhausted", s.all.len()-s.preloadN))
				return
			}
			pay := s.preloadN + j
			more, err := timed(rec, ph, clsInsert, func() error {
				s.issued.Store(int64(j + 1))
				return c.Insert(s.all.at(pay), uint64(pay))
			})
			if !more {
				return
			}
			if err != nil {
				// The acknowledged prefix would no longer be a prefix;
				// stop writing and let the error count.
				return
			}
			s.acked.Store(int64(j + 1))
		}
	}
	return []connLoop{reader, writer}
}
