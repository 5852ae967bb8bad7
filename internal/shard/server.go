package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"bvtree/internal/geometry"
	"bvtree/internal/obs"
)

// ServerConfig tunes a Server. The zero value serves with the defaults
// documented on each field.
type ServerConfig struct {
	// MaxInflight caps how many pipelined requests one connection may
	// have queued or executing (default 64). When the cap is reached the
	// server stops reading from that connection's socket, so backpressure
	// propagates to the client through TCP flow control — a fast client
	// cannot queue unbounded work. See PROTOCOL.md ("Pipelining and
	// backpressure").
	MaxInflight int
	// MaxFrame caps a frame's payload length in bytes (default
	// shard.MaxFrame, 16 MiB). A request frame announcing more than this
	// closes the connection; reply frames never exceed it (see
	// RangeLimitMax and OpNearest's k).
	MaxFrame int
	// RangeLimitMax caps the per-request item limit of OpRange responses
	// (default 1<<20). Requests asking for more (or for no limit) are
	// truncated here. It is itself clamped to the most items a reply of
	// the plan's Dims can carry within MaxFrame (699,050 in 2-D at the
	// default MaxFrame).
	RangeLimitMax int
}

func (c *ServerConfig) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = MaxFrame
	}
	if c.RangeLimitMax <= 0 {
		c.RangeLimitMax = 1 << 20
	}
}

// numOps is the size of the per-opcode metric arrays (opcodes are
// 1-based and contiguous).
const numOps = OpLen + 1

// serverMetrics are the server-layer observability instruments,
// complementing the per-shard tree metrics reachable through the
// router.
type serverMetrics struct {
	conns    obs.Gauge   // currently open connections
	accepted obs.Counter // connections accepted over the server's life
	errors   obs.Counter // non-OK responses sent
	bytesIn  obs.Counter // request frame bytes read (incl. length prefixes)
	bytesOut obs.Counter // response frame bytes written
	requests [numOps]obs.Counter
	latency  [numOps]obs.Histogram // request execution ns, by opcode
}

// OpMetrics is one opcode's request count and execution-latency summary
// in a ServerMetricsSnapshot.
type OpMetrics struct {
	Requests uint64                `json:"requests"`
	Latency  obs.HistogramSnapshot `json:"latency_ns"`
}

// ServerMetricsSnapshot is the server-layer metrics view: connection
// and byte counters plus per-opcode request latencies. Per-shard tree,
// WAL and store metrics are a separate surface (Router.ShardMetrics);
// cmd/bvserver publishes both under one expvar key.
type ServerMetricsSnapshot struct {
	Conns    int64                `json:"conns"`
	Accepted uint64               `json:"accepted"`
	Errors   uint64               `json:"errors"`
	BytesIn  uint64               `json:"bytes_in"`
	BytesOut uint64               `json:"bytes_out"`
	Ops      map[string]OpMetrics `json:"ops"`
}

// Server speaks the PROTOCOL.md wire protocol over a Router. Create
// one with NewServer, start it with Serve or ListenAndServe, stop it
// with Close. Every connection gets one reader and one executor
// goroutine: the reader decodes ahead up to MaxInflight requests (the
// pipelining window) while the executor runs them against the router
// strictly in arrival order, so responses are ordered per connection
// and cross-connection parallelism — not reordering — is the
// concurrency model.
type Server struct {
	r   *Router
	cfg ServerConfig
	m   serverMetrics

	// nearestMax is the largest k whose OpNearest reply fits MaxFrame;
	// larger requests are clamped to it.
	nearestMax int

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup
}

// NewServer returns an unstarted server over r.
func NewServer(r *Router, cfg ServerConfig) *Server {
	cfg.fill()
	// Hold every reply within MaxFrame: past the header, a Range reply
	// is count(4) truncated(1) and 8·(dims+1) bytes per item, a Nearest
	// reply count(4) and 8·(dims+2) bytes per neighbour.
	room, dims := cfg.MaxFrame-headerSize, r.plan.Dims
	if m := (room - 5) / (8 * (dims + 1)); cfg.RangeLimitMax > m {
		cfg.RangeLimitMax = m
	}
	return &Server{r: r, cfg: cfg, conns: make(map[net.Conn]struct{}),
		nearestMax: (room - 4) / (8 * (dims + 2))}
}

// Router returns the router the server serves.
func (s *Server) Router() *Router { return s.r }

// ListenAndServe listens on addr (e.g. ":7070", "127.0.0.1:0") and
// serves until Close. It returns the Serve error after listening
// succeeds; the listener's address is available from Addr once this
// call has entered Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.m.accepted.Inc()
		s.m.conns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Addr returns the serving listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every open connection and waits for
// the per-connection goroutines to drain. In-flight requests that
// complete before their connection notices the close still get their
// responses; requests dequeued after Close begins are answered with
// StatusShutdown. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		// Unblock the reader; the executor drains its queue and exits.
		c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
		delete(s.conns, c)
	}
	s.mu.Unlock()
	return nil
}

// Metrics returns the server-layer metrics snapshot.
func (s *Server) Metrics() ServerMetricsSnapshot {
	snap := ServerMetricsSnapshot{
		Conns:    s.m.conns.Load(),
		Accepted: s.m.accepted.Load(),
		Errors:   s.m.errors.Load(),
		BytesIn:  s.m.bytesIn.Load(),
		BytesOut: s.m.bytesOut.Load(),
		Ops:      make(map[string]OpMetrics),
	}
	for op := 1; op < numOps; op++ {
		n := s.m.requests[op].Load()
		if n == 0 {
			continue
		}
		snap.Ops[opName(byte(op))] = OpMetrics{
			Requests: n,
			Latency:  s.m.latency[op].Snapshot(),
		}
	}
	return snap
}

// request is one decoded frame queued from reader to executor.
type request struct {
	op   byte
	id   uint32
	body []byte
	// respond-only errors discovered by the reader (bad version, short
	// header) ride the same queue so responses keep arrival order.
	status byte
	errMsg string
}

// decodeRequest splits a frame payload (at least headerSize bytes, as
// readFrame guarantees) into its header fields and body.
func decodeRequest(payload []byte) request {
	req := request{
		op:   payload[1],
		id:   binary.BigEndian.Uint32(payload[2:6]),
		body: payload[headerSize:],
	}
	if payload[0] != ProtoVersion {
		req.status = StatusBadVersion
		req.errMsg = fmt.Sprintf("got version %#02x, want %#02x", payload[0], ProtoVersion)
	}
	return req
}

// serveConn runs one connection: a reader goroutine feeding a bounded
// queue (the pipelining window / backpressure valve) and this
// goroutine executing requests and writing responses in order.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.m.conns.Add(-1)
	}()

	reqc := make(chan request, s.cfg.MaxInflight)
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		defer close(reqc)
		for {
			payload, err := readFrame(conn, s.cfg.MaxFrame)
			if err != nil {
				// EOF, peer reset, read-deadline from Close, or an
				// unframeable stream (bad length): nothing further can be
				// parsed, so the connection ends. Queued requests still
				// drain below.
				return
			}
			s.m.bytesIn.Add(uint64(len(payload)) + 4)
			reqc <- decodeRequest(payload)
		}
	}()

	bw := bufio.NewWriter(conn)
	for req := range reqc {
		status, body := s.execute(&req)
		resp := make([]byte, 0, headerSize+len(body))
		resp = append(resp, ProtoVersion, status)
		resp = binary.BigEndian.AppendUint32(resp, req.id)
		resp = append(resp, body...)
		if err := writeFrame(bw, resp); err != nil {
			break
		}
		s.m.bytesOut.Add(uint64(len(resp)) + 4)
		if status != StatusOK {
			s.m.errors.Inc()
		}
		// Flush when the pipeline is momentarily empty: responses batch
		// while requests keep arriving, but a lone request is answered
		// immediately.
		if len(reqc) == 0 {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	bw.Flush()
	readerDone.Wait()
}

// execute runs one request against the router and returns the response
// status and body.
func (s *Server) execute(req *request) (byte, []byte) {
	if req.status != 0 {
		return req.status, []byte(req.errMsg)
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return StatusShutdown, []byte(statusText(StatusShutdown))
	}
	if req.op == 0 || req.op >= numOps {
		return StatusUnknownOp, []byte(fmt.Sprintf("opcode %#02x", req.op))
	}
	s.m.requests[req.op].Inc()
	start := time.Now()
	status, body := s.executeOp(req.op, req.body)
	s.m.latency[req.op].Observe(int64(time.Since(start)))
	return status, body
}

func (s *Server) executeOp(op byte, body []byte) (byte, []byte) {
	dims := s.r.plan.Dims
	switch op {
	case OpPing:
		out := []byte{byte(dims)}
		out = binary.BigEndian.AppendUint16(out, uint16(s.r.Shards()))
		return StatusOK, out

	case OpInsert:
		p, rest, ok := parsePoint(body, dims)
		if !ok || len(rest) != 8 {
			return StatusMalformed, []byte("insert: want point + payload")
		}
		if err := s.r.Insert(p, binary.BigEndian.Uint64(rest)); err != nil {
			return StatusInternal, []byte(err.Error())
		}
		return StatusOK, nil

	case OpDelete:
		p, rest, ok := parsePoint(body, dims)
		if !ok || len(rest) != 8 {
			return StatusMalformed, []byte("delete: want point + payload")
		}
		found, err := s.r.Delete(p, binary.BigEndian.Uint64(rest))
		if err != nil {
			return StatusInternal, []byte(err.Error())
		}
		if found {
			return StatusOK, []byte{1}
		}
		return StatusOK, []byte{0}

	case OpLookup:
		p, rest, ok := parsePoint(body, dims)
		if !ok || len(rest) != 0 {
			return StatusMalformed, []byte("lookup: want point")
		}
		payloads, err := s.r.Lookup(p)
		if err != nil {
			return StatusInternal, []byte(err.Error())
		}
		out := binary.BigEndian.AppendUint32(nil, uint32(len(payloads)))
		for _, v := range payloads {
			out = binary.BigEndian.AppendUint64(out, v)
		}
		return StatusOK, out

	case OpRange:
		rect, rest, ok := parseRect(body, dims)
		if !ok || len(rest) != 4 {
			return StatusMalformed, []byte("range: want min + max + limit")
		}
		if _, err := geometry.NewRect(rect.Min, rect.Max); err != nil {
			return StatusBadRequest, []byte(err.Error())
		}
		limit := int(binary.BigEndian.Uint32(rest))
		if limit == 0 || limit > s.cfg.RangeLimitMax {
			limit = s.cfg.RangeLimitMax
		}
		items := make([]byte, 0, 1024)
		count, truncated := 0, false
		err := s.r.RangeQuery(rect, func(p geometry.Point, payload uint64) bool {
			if count == limit {
				truncated = true
				return false
			}
			items = appendPoint(items, p)
			items = binary.BigEndian.AppendUint64(items, payload)
			count++
			return true
		})
		if err != nil {
			return StatusInternal, []byte(err.Error())
		}
		out := binary.BigEndian.AppendUint32(nil, uint32(count))
		if truncated {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		return StatusOK, append(out, items...)

	case OpCount:
		rect, rest, ok := parseRect(body, dims)
		if !ok || len(rest) != 0 {
			return StatusMalformed, []byte("count: want min + max")
		}
		if _, err := geometry.NewRect(rect.Min, rect.Max); err != nil {
			return StatusBadRequest, []byte(err.Error())
		}
		n, err := s.r.Count(rect)
		if err != nil {
			return StatusInternal, []byte(err.Error())
		}
		return StatusOK, binary.BigEndian.AppendUint64(nil, uint64(n))

	case OpNearest:
		p, rest, ok := parsePoint(body, dims)
		if !ok || len(rest) != 4 {
			return StatusMalformed, []byte("nearest: want point + k")
		}
		k := int(binary.BigEndian.Uint32(rest))
		if k < 1 {
			return StatusBadRequest, []byte("nearest: k must be at least 1")
		}
		if k > s.nearestMax {
			k = s.nearestMax
		}
		ns, err := s.r.Nearest(p, k)
		if err != nil {
			return StatusInternal, []byte(err.Error())
		}
		out := binary.BigEndian.AppendUint32(nil, uint32(len(ns)))
		for _, nb := range ns {
			out = appendPoint(out, nb.Point)
			out = binary.BigEndian.AppendUint64(out, nb.Payload)
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(nb.Dist))
		}
		return StatusOK, out

	case OpLen:
		lens := s.r.ShardLens()
		total := 0
		for _, n := range lens {
			total += n
		}
		out := binary.BigEndian.AppendUint64(nil, uint64(total))
		out = binary.BigEndian.AppendUint16(out, uint16(len(lens)))
		for _, n := range lens {
			out = binary.BigEndian.AppendUint64(out, uint64(n))
		}
		return StatusOK, out
	}
	return StatusUnknownOp, []byte(fmt.Sprintf("opcode %#02x", op))
}

// parseRect decodes min and max points, returning the remainder.
func parseRect(buf []byte, dims int) (geometry.Rect, []byte, bool) {
	min, rest, ok := parsePoint(buf, dims)
	if !ok {
		return geometry.Rect{}, buf, false
	}
	max, rest, ok := parsePoint(rest, dims)
	if !ok {
		return geometry.Rect{}, buf, false
	}
	return geometry.Rect{Min: min, Max: max}, rest, true
}

// ErrStatus is the error a Client returns for a non-OK response
// status: the code, its name, and the server's message.
type ErrStatus struct {
	Status byte
	Msg    string
}

func (e *ErrStatus) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("shard: server error: %s", statusText(e.Status))
	}
	return fmt.Sprintf("shard: server error: %s: %s", statusText(e.Status), e.Msg)
}

// IsStatus reports whether err is an ErrStatus carrying the given
// status code.
func IsStatus(err error, status byte) bool {
	var se *ErrStatus
	return errors.As(err, &se) && se.Status == status
}
