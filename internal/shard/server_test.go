package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"testing"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/workload"
)

// startServer runs a server over mem-backed shards on a loopback
// listener and returns it with its dial address.
func startServer(t *testing.T, dims, shards int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	plan, err := PlanUniform(dims, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func TestShardServerRoundTrip(t *testing.T) {
	const dims, shards, n = 2, 4, 800
	s, addr := startServer(t, dims, shards, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Dims() != dims || c.Shards() != shards {
		t.Fatalf("ping says dims=%d shards=%d, want %d/%d", c.Dims(), c.Shards(), dims, shards)
	}

	pts, err := workload.Generate(workload.Clustered, dims, n, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := c.Insert(p, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// The server's router is the oracle: the wire layer must be a
	// faithful transport on top of it.
	r := s.Router()
	total, perShard, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if total != n || total != r.Len() {
		t.Fatalf("len %d, want %d", total, n)
	}
	if len(perShard) != shards {
		t.Fatalf("per-shard lens %v, want %d entries", perShard, shards)
	}

	for i := 0; i < n; i += 111 {
		got, err := c.Lookup(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Lookup(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup %v over wire: %v, direct: %v", pts[i], got, want)
		}
	}

	rect := workload.QueryRects(dims, 1, 0.4, 77)[0]
	wirePts, wirePays, truncated, err := c.Range(rect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("untruncated query reported truncated")
	}
	direct := collect(t, func(v bvtree.Visitor) error { return r.RangeQuery(rect, v) })
	if len(wirePts) != len(direct) {
		t.Fatalf("range over wire: %d items, direct: %d", len(wirePts), len(direct))
	}
	wn, err := c.Count(rect)
	if err != nil {
		t.Fatal(err)
	}
	if wn != len(direct) {
		t.Fatalf("count over wire %d, want %d", wn, len(direct))
	}
	_ = wirePays

	// Truncation: limit smaller than the result set.
	if len(direct) > 3 {
		lp, _, trunc, err := c.Range(rect, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !trunc || len(lp) != 3 {
			t.Fatalf("limit 3: got %d items, truncated=%v", len(lp), trunc)
		}
	}

	gotN, err := c.Nearest(pts[5], 7)
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := r.Nearest(pts[5], 7)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "wire nearest", gotN, wantN)

	found, err := c.Delete(pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("delete of stored point reported not found")
	}
	found, err = c.Delete(pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("second delete of same point reported found")
	}

	m := s.Metrics()
	if m.Ops["insert"].Requests != n {
		t.Fatalf("server counted %d inserts, want %d", m.Ops["insert"].Requests, n)
	}
	if m.Ops["insert"].Latency.Count != n {
		t.Fatalf("insert latency histogram has %d samples, want %d", m.Ops["insert"].Latency.Count, n)
	}
	if m.BytesIn == 0 || m.BytesOut == 0 || m.Accepted == 0 {
		t.Fatalf("byte/connection counters not advancing: %+v", m)
	}
}

// TestShardServerPipelining proves the pipelining contract: many
// requests sent without awaiting replies, replies delivered strictly
// in request order.
func TestShardServerPipelining(t *testing.T) {
	const dims, burst = 2, 200
	_, addr := startServer(t, dims, 4, ServerConfig{MaxInflight: 16})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pts, err := workload.Generate(workload.Uniform, dims, burst, 19)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, burst)
	for i, p := range pts {
		id, err := c.SendInsert(p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		id, err := c.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if id != ids[i] {
			t.Fatalf("reply %d has id %d, want %d: replies out of request order", i, id, ids[i])
		}
	}
	// The connection is still coherent for synchronous use.
	total, _, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if total != burst {
		t.Fatalf("len after pipelined burst %d, want %d", total, burst)
	}
}

// rawConn speaks raw frames for malformed-input tests.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(payload []byte) {
	r.t.Helper()
	if err := writeFrame(r.conn, payload); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads one response, returning its status and body.
func (r *rawConn) recv() (byte, []byte) {
	r.t.Helper()
	payload, err := readFrame(r.conn, MaxFrame)
	if err != nil {
		r.t.Fatalf("read response: %v", err)
	}
	return payload[1], payload[headerSize:]
}

func req(op byte, id uint32, body ...byte) []byte {
	payload := []byte{ProtoVersion, op}
	payload = binary.BigEndian.AppendUint32(payload, id)
	return append(payload, body...)
}

func TestShardServerErrors(t *testing.T) {
	const dims = 2
	_, addr := startServer(t, dims, 2, ServerConfig{})

	t.Run("malformed-body", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(req(OpInsert, 1, 0xAB)) // 1-byte body, needs dims*8+8
		status, _ := rc.recv()
		if status != StatusMalformed {
			t.Fatalf("status %#02x, want StatusMalformed", status)
		}
		// The connection survives body-level errors.
		rc.send(req(OpPing, 2))
		if status, _ := rc.recv(); status != StatusOK {
			t.Fatalf("ping after malformed request: status %#02x", status)
		}
	})

	t.Run("unknown-opcode", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(req(0x7F, 1))
		status, _ := rc.recv()
		if status != StatusUnknownOp {
			t.Fatalf("status %#02x, want StatusUnknownOp", status)
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		rc := dialRaw(t, addr)
		frame := req(OpPing, 1)
		frame[0] = 0x7E
		rc.send(frame)
		status, _ := rc.recv()
		if status != StatusBadVersion {
			t.Fatalf("status %#02x, want StatusBadVersion", status)
		}
	})

	t.Run("bad-rect", func(t *testing.T) {
		rc := dialRaw(t, addr)
		body := make([]byte, 0, dims*16)
		body = appendPoint(body, geometry.Point{10, 10}) // min > max
		body = appendPoint(body, geometry.Point{1, 1})
		rc.send(req(OpCount, 1, body...))
		status, _ := rc.recv()
		if status != StatusBadRequest {
			t.Fatalf("status %#02x, want StatusBadRequest", status)
		}
	})

	t.Run("nearest-k-zero", func(t *testing.T) {
		rc := dialRaw(t, addr)
		body := appendPoint(nil, geometry.Point{1, 1})
		body = binary.BigEndian.AppendUint32(body, 0)
		rc.send(req(OpNearest, 1, body...))
		status, _ := rc.recv()
		if status != StatusBadRequest {
			t.Fatalf("status %#02x, want StatusBadRequest", status)
		}
	})

	t.Run("oversized-frame-closes", func(t *testing.T) {
		rc := dialRaw(t, addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		if _, err := rc.conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(rc.conn); err != nil {
			t.Fatalf("expected clean close after oversized frame, got %v", err)
		}
	})

	t.Run("short-frame-closes", func(t *testing.T) {
		rc := dialRaw(t, addr)
		// Announce a 2-byte payload: below the 6-byte header minimum.
		// The server drops the connection; depending on whether our
		// bytes were consumed before the close we see EOF or a reset.
		rc.send([]byte{0x01, 0x02})
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(rc.conn); err != nil && !isConnReset(err) {
			t.Fatalf("expected connection teardown after short frame, got %v", err)
		}
	})
}

func TestShardServerClose(t *testing.T) {
	s, addr := startServer(t, 2, 2, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(geometry.Point{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed server must refuse further work one way or the other:
	// either the connection is torn down or the request is answered
	// with StatusShutdown.
	err = c.Insert(geometry.Point{3, 4}, 2)
	if err == nil {
		t.Fatal("insert succeeded after server close")
	}
	if !IsStatus(err, StatusShutdown) && !errors.Is(err, io.EOF) &&
		!errors.Is(err, net.ErrClosed) && !isConnReset(err) {
		t.Fatalf("unexpected post-close error: %v", err)
	}
	// Dialing anew must fail: the listener is gone.
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after server close")
	}
}

func isConnReset(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// TestShardServerConcurrentClients drives several clients at once —
// the cross-connection parallelism the per-connection ordering model
// relies on — and checks the merged result.
func TestShardServerConcurrentClients(t *testing.T) {
	const dims, clients, perClient = 2, 4, 300
	s, addr := startServer(t, dims, 4, ServerConfig{})
	pts, err := workload.Generate(workload.Uniform, dims, clients*perClient, 43)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := g * perClient; i < (g+1)*perClient; i++ {
				if err := c.Insert(pts[i], uint64(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Router().Len(); got != clients*perClient {
		t.Fatalf("router holds %d items, want %d", got, clients*perClient)
	}
	payloads := make([]int, 0, clients*perClient)
	err = s.Router().Scan(func(_ geometry.Point, payload uint64) bool {
		payloads = append(payloads, int(payload))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(payloads)
	for i, v := range payloads {
		if v != i {
			t.Fatalf("payload %d missing from scan (found %d)", i, v)
		}
	}
}

// TestShardServerReplyCaps sends a Range limit and a Nearest k far above
// what one reply can carry: the server must clamp both to the most items
// that fit its MaxFrame, so readFrame at that limit accepts the reply.
func TestShardServerReplyCaps(t *testing.T) {
	const dims, maxFrame, n = 2, 4096, 600
	s, addr := startServer(t, dims, 2, ServerConfig{MaxFrame: maxFrame})
	pts, err := workload.Generate(workload.Uniform, dims, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := s.Router().Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rc := dialRaw(t, addr)
	// call sends one request and returns the OK reply's item count and
	// the bytes after the count.
	call := func(op byte, body []byte) (int, []byte) {
		t.Helper()
		rc.send(req(op, 1, body...))
		payload, err := readFrame(rc.conn, maxFrame)
		if err != nil {
			t.Fatalf("%s reply rejected: %v", opName(op), err)
		}
		if payload[1] != StatusOK {
			t.Fatalf("%s: status %#02x: %s", opName(op), payload[1], payload[headerSize:])
		}
		body = payload[headerSize:]
		return int(binary.BigEndian.Uint32(body)), body[4:]
	}
	// tight checks that count items of size bytes plus fixed bytes of
	// framing fill a frame of limit bytes as far as whole items go.
	tight := func(what string, count, size, fixed, limit int) {
		t.Helper()
		if count == 0 || headerSize+fixed+count*size > limit || headerSize+fixed+(count+1)*size <= limit {
			t.Fatalf("%s: %d items of %d bytes is not the most a %d-byte frame holds", what, count, size, limit)
		}
	}

	universe := appendPoint(appendPoint(nil, geometry.Point{0, 0}), geometry.Point{math.MaxUint64, math.MaxUint64})
	for _, limit := range []uint32{0, math.MaxUint32} {
		count, rest := call(OpRange, binary.BigEndian.AppendUint32(append([]byte(nil), universe...), limit))
		if rest[0] != 1 || len(rest) != 1+count*8*(dims+1) {
			t.Fatalf("range limit %d: truncated=%d, %d item bytes for %d items", limit, rest[0], len(rest)-1, count)
		}
		tight(fmt.Sprintf("range limit %d", limit), count, 8*(dims+1), 5, maxFrame)
	}
	count, rest := call(OpNearest, binary.BigEndian.AppendUint32(appendPoint(nil, pts[0]), math.MaxUint32))
	if len(rest) != count*8*(dims+2) {
		t.Fatalf("nearest: %d neighbour bytes for %d neighbours", len(rest), count)
	}
	tight("nearest", count, 8*(dims+2), 4, maxFrame)

	// The default RangeLimitMax (1<<20 items, 24 MiB in 2-D) is clamped
	// to the default 16 MiB frame.
	def := NewServer(s.Router(), ServerConfig{})
	tight("default RangeLimitMax", def.cfg.RangeLimitMax, 8*(dims+1), 5, MaxFrame)
}
