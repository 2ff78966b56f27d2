package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"shredder/internal/race"
)

// TestCodeIsLengthLimited drives the length limit: counts in a Fibonacci
// run give a Huffman tree as deep as it can be, far past the coder's limit
// of 12 bits, and the code cut to 12 bits still round-trips.
func TestCodeIsLengthLimited(t *testing.T) {
	var packed []byte
	a, b := 1, 1
	for v := 0; v < 24; v++ {
		packed = append(packed, bytes.Repeat([]byte{byte(v)}, a)...)
		a, b = b, a+b
	}
	coded := AppendCoded(nil, packed)
	if coded[0] != formCoded {
		t.Fatal("a Fibonacci payload was stored, not coded")
	}
	var c huffmanCode
	if err := c.ReadTable(coded[1:codedHeader]); err != nil {
		t.Fatalf("the limited code is not one the decoder takes: %v", err)
	}
	for v := range 24 {
		if l := coded[1+v/2] >> (4 * (v % 2)) & 15; l < 1 || l > 12 {
			t.Fatalf("value %d has a %d-bit code", v, l)
		}
	}
	got, err := AppendDecoded(new(HuffmanDecoder), nil, coded, len(packed))
	if err != nil || !bytes.Equal(got, packed) {
		t.Fatalf("length-limited round trip: %v", err)
	}
}

// TestRefusedCodeSizesNothing: a coded payload claims a packed length up to
// eight times its bytes, and one whose length table is refused is turned
// away before anything is sized from that claim.
func TestRefusedCodeSizesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	packed := make([]byte, 1<<20)
	coded := AppendCoded(nil, packed) // one value: a 1-bit code per byte
	coded[1] = 2                      // value 0's code is 2 bits: the code is incomplete
	var d HuffmanDecoder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := AppendDecoded(&d, nil, coded, len(packed))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCoded) || got != nil {
		t.Fatalf("a broken length table: %d bytes, error %v", len(got), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(len(coded)) {
		t.Fatalf("refusing %d coded bytes that claim %d allocated %d bytes", len(coded), len(packed), grew)
	}
}
