package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"bvtree/internal/geometry"
)

// fuzzMaxFrame is the frame limit of the FuzzFrame server. It is well
// above what any request can legitimately allocate against the fuzz
// router's few hundred points (a whole-tree Nearest is ~150 KB), and far
// below what a request allocating in proportion to a decoded count such
// as k or limit would take.
const fuzzMaxFrame = 1 << 20

// fuzzStream concatenates frames into one connection byte stream.
func fuzzStream(frames ...[]byte) []byte {
	var buf bytes.Buffer
	for _, fr := range frames {
		writeFrame(&buf, fr)
	}
	return buf.Bytes()
}

// FuzzFrame feeds arbitrary bytes through the server's connection
// decode path: readFrame splits the stream into frames exactly as a
// connection's reader does, and each frame is decoded and executed
// against an in-memory router holding a few hundred points. Every frame
// must end in a framing error or a reply with a defined status (and a
// message when the status is not OK) that fits in one frame, never a
// panic, and executing one request must allocate no more than the frame
// limit in total.
//
// Run it with `make fuzz-frame`; a plain `go test` runs the seeds.
func FuzzFrame(f *testing.F) {
	const dims = 2
	pt := appendPoint(nil, geometry.Point{1 << 40, 1 << 50})
	rect := appendPoint(appendPoint(nil, geometry.Point{0, 0}), geometry.Point{1 << 62, 1 << 62})
	withU32 := func(b []byte, v uint32) []byte {
		return binary.BigEndian.AppendUint32(append([]byte(nil), b...), v)
	}
	withU64 := func(b []byte, v uint64) []byte {
		return binary.BigEndian.AppendUint64(append([]byte(nil), b...), v)
	}
	f.Add(fuzzStream(
		req(OpPing, 1),
		req(OpInsert, 2, withU64(pt, 7)...),
		req(OpLookup, 3, pt...),
		req(OpDelete, 4, withU64(pt, 7)...),
		req(OpRange, 5, withU32(rect, 0)...),
		req(OpCount, 6, rect...),
		req(OpNearest, 7, withU32(pt, 3)...),
		req(OpLen, 8),
	))
	f.Add(fuzzStream(req(OpNearest, 1, withU32(pt, 1<<31)...)))
	f.Add(fuzzStream(req(OpRange, 1, withU32(rect, 1<<31)...)))
	f.Add(fuzzStream(req(OpInsert, 1, 0xAB), req(0x7F, 2), append([]byte{0x7E}, req(OpPing, 3)[1:]...)))
	f.Add([]byte{0, 0, 0, 2, 1, 2})                     // payload below the header
	f.Add([]byte{0x01, 0, 0, 0, 1, OpPing, 0, 0, 0, 1}) // announces more than the limit
	f.Add([]byte{0, 0, 0, 20, ProtoVersion, OpLookup})  // truncated mid-frame

	f.Fuzz(func(t *testing.T, stream []byte) {
		plan, err := PlanUniform(dims, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(plan, newEngines(t, "mem", plan))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 300; i++ {
			p := geometry.Point{i * 0x9E3779B97F4A7C15, (i * 0xC2B2AE3D27D4EB4F) >> 1}
			if err := r.Insert(p, i); err != nil {
				t.Fatal(err)
			}
		}
		s := NewServer(r, ServerConfig{MaxFrame: fuzzMaxFrame})
		in := bytes.NewReader(stream)
		var before, after runtime.MemStats
		for {
			payload, err := readFrame(in, fuzzMaxFrame)
			if err != nil {
				return // framing error or end of stream: the connection ends
			}
			if len(payload) > fuzzMaxFrame {
				t.Fatalf("readFrame returned %d bytes, limit %d", len(payload), fuzzMaxFrame)
			}
			runtime.ReadMemStats(&before)
			q := decodeRequest(payload)
			status, body := s.execute(&q)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > fuzzMaxFrame {
				t.Fatalf("%s request allocated %d bytes, frame limit %d", opName(q.op), n, fuzzMaxFrame)
			}
			if headerSize+len(body) > fuzzMaxFrame {
				t.Fatalf("%s: %d-byte reply exceeds the frame limit", opName(q.op), headerSize+len(body))
			}
			switch status {
			case StatusOK:
			case StatusMalformed, StatusUnknownOp, StatusBadRequest, StatusBadVersion:
				if len(body) == 0 {
					t.Fatalf("%s: status %s without a message", opName(q.op), statusText(status))
				}
			default:
				t.Fatalf("%s: status %s (%q) from an in-memory router", opName(q.op), statusText(status), body)
			}
		}
	})
}
