package page

import (
	"math/rand"
	"testing"

	"bvtree/internal/geometry"
	"bvtree/internal/region"
)

func randBits(rng *rand.Rand, maxLen int) region.BitString {
	n := rng.Intn(maxLen + 1)
	b := region.BitString{}
	for i := 0; i < n; i++ {
		b = b.Append(rng.Intn(2))
	}
	return b
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := &IndexNode{
			Level:  1 + rng.Intn(5),
			Region: randBits(rng, 100),
		}
		for i := 0; i < rng.Intn(20); i++ {
			n.Entries = append(n.Entries, Entry{
				Key:   randBits(rng, 150),
				Level: rng.Intn(n.Level),
				Child: ID(rng.Uint64()),
			})
		}
		blob := EncodeIndex(n)
		k, err := DecodeKind(blob)
		if err != nil || k != KindIndex {
			t.Fatalf("kind = %v, %v", k, err)
		}
		got, err := DecodeIndex(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.Level != n.Level || !got.Region.Equal(n.Region) || len(got.Entries) != len(n.Entries) {
			t.Fatalf("header mismatch: %+v vs %+v", got, n)
		}
		for i := range n.Entries {
			if !got.Entries[i].Key.Equal(n.Entries[i].Key) ||
				got.Entries[i].Level != n.Entries[i].Level ||
				got.Entries[i].Child != n.Entries[i].Child {
				t.Fatalf("entry %d mismatch", i)
			}
		}
	}
}

func TestDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		dims := 1 + rng.Intn(4)
		p := &DataPage{Region: randBits(rng, 80)}
		for i := 0; i < rng.Intn(30); i++ {
			pt := make(geometry.Point, dims)
			for d := range pt {
				pt[d] = rng.Uint64()
			}
			p.Items = append(p.Items, Item{Point: pt, Payload: rng.Uint64()})
		}
		blob := EncodeData(p, dims)
		got, gotDims, err := DecodeData(blob)
		if err != nil {
			t.Fatal(err)
		}
		if gotDims != dims || !got.Region.Equal(p.Region) || len(got.Items) != len(p.Items) {
			t.Fatalf("header mismatch")
		}
		for i := range p.Items {
			if !got.Items[i].Point.Equal(p.Items[i].Point) || got.Items[i].Payload != p.Items[i].Payload {
				t.Fatalf("item %d mismatch", i)
			}
		}
	}
}

// TestDecodeDataAllocsConstant pins the arena decode: decoding a data
// page costs the same number of allocations whatever its item count, up
// to a full 32-item page, because all coordinates share one arena.
func TestDecodeDataAllocsConstant(t *testing.T) {
	allocs := func(items int) float64 {
		p := &DataPage{Region: region.MustParseBits("0110")}
		for i := 0; i < items; i++ {
			p.Items = append(p.Items, Item{Point: geometry.Point{uint64(i), uint64(i) << 40}, Payload: uint64(i)})
		}
		blob := EncodeData(p, 2)
		return testing.AllocsPerRun(100, func() {
			if _, _, err := DecodeData(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := allocs(1)
	for _, items := range []int{8, 32} {
		if got := allocs(items); got != one {
			t.Fatalf("decoding %d items costs %.0f allocations, 1 item %.0f: want equal", items, got, one)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	n := &IndexNode{Level: 1, Region: region.MustParseBits("01")}
	n.Entries = append(n.Entries, Entry{Key: region.MustParseBits("010"), Level: 0, Child: 7})
	blob := EncodeIndex(n)
	for pos := 0; pos < len(blob); pos += 3 {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		if _, err := DecodeIndex(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
}

func TestDecodeWrongKind(t *testing.T) {
	d := &DataPage{Region: region.BitString{}}
	blob := EncodeData(d, 2)
	if _, err := DecodeIndex(blob); err == nil {
		t.Fatal("data page decoded as index node")
	}
	n := &IndexNode{Level: 1}
	if _, _, err := DecodeData(EncodeIndex(n)); err == nil {
		t.Fatal("index node decoded as data page")
	}
}

func TestDecodeTruncated(t *testing.T) {
	n := &IndexNode{Level: 2, Region: region.MustParseBits("0")}
	blob := EncodeIndex(n)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeIndex(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestIsGuard(t *testing.T) {
	e := Entry{Level: 0}
	if e.IsGuard(1) {
		t.Fatal("unpromoted entry classified as guard")
	}
	if !e.IsGuard(2) {
		t.Fatal("level-0 entry in a level-2 node is a guard")
	}
}
