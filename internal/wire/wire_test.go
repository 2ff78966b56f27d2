package wire_test

import (
	"bytes"
	"errors"
	"go/build"
	"io"
	"math"
	"slices"
	"testing"

	"shredder/internal/tensor"
	"shredder/internal/wire"
)

func TestDecodeGarbageFails(t *testing.T) {
	const magic = "test-artifact/1\n"
	for name, file := range map[string][]byte{
		"empty": {}, "garbage": {1, 2, 3}, "magic cut short": []byte(magic[:7]), "another magic": []byte("test-artifact/2\nrest"),
	} {
		r := wire.NewReader(file, magic)
		if !errors.Is(r.Err(), wire.ErrArtifact) || !errors.Is(r.Close(), wire.ErrArtifact) {
			t.Errorf("%s: Err = %v", name, r.Err())
		}
		if r.U32() != 0 || r.F64() != 0 || r.Name() != nil || r.Take(1, 1) != nil || r.Count(1, 8) != 0 {
			t.Errorf("%s: a failed Reader still yields fields", name)
		}
	}
}

// Every declared extent meets the bytes present in Take, before a product is
// formed: a count that overflows, or wraps round to what the file does
// carry, fails like one that is simply too long.
func TestReaderMatchesExtentsAgainstBytesPresent(t *testing.T) {
	const magic = "m\n"
	file := func(fields ...byte) []byte { return append([]byte(magic), fields...) }
	u32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

	r := wire.NewReader(file(append(u32(3), 1, 2, 3, 4, 5, 6)...), magic)
	if n := r.Count(1, 2); n != 3 || r.Err() != nil {
		t.Fatalf("Count(1, 2) = %d, %v; six bytes follow three items of two", n, r.Err())
	}
	if p := r.Take(3, 2); len(p) != 6 || r.Close() != nil {
		t.Fatalf("Take(3, 2) = %v, Close %v", p, r.Close())
	}

	for name, c := range map[string]struct {
		fields []byte
		read   func(r *wire.Reader)
	}{
		"count past the end":   {append(u32(4), 1, 2, 3, 4, 5, 6), func(r *wire.Reader) { r.Count(1, 2) }},
		"count wraps to 8":     {append(u32(1<<29+1), 1, 2, 3, 4, 5, 6, 7, 8), func(r *wire.Reader) { r.Count(1, 8) }},
		"record overflows int": {append(u32(1), 1, 2, 3, 4, 5, 6, 7, 8), func(r *wire.Reader) { r.Count(math.MaxInt/2, 8) }},
		"take overflows int":   {[]byte{1, 2, 3, 4}, func(r *wire.Reader) { r.Take(math.MaxInt/2, 4) }},
		"take negative":        {[]byte{1, 2, 3, 4}, func(r *wire.Reader) { r.Take(-1, 4) }},
		"one byte short":       {[]byte{1, 2, 3}, func(r *wire.Reader) { r.U32() }},
		"name past the end":    {[]byte{5, 0, 'a', 'b'}, func(r *wire.Reader) { r.Name() }},
		"rank above the limit": {append(u32(wire.MaxRank+1), make([]byte, 64)...), func(r *wire.Reader) { r.Shape() }},
		"dims past the end":    {append(u32(2), u32(3)...), func(r *wire.Reader) { r.Shape() }},
		"negative dimension":   {append(u32(1), u32(0xffffffff)...), func(r *wire.Reader) { r.Shape() }},
		"volume wraps": {bytes.Join([][]byte{u32(4), u32(math.MaxInt32), u32(math.MaxInt32), u32(math.MaxInt32), u32(math.MaxInt32)}, nil),
			func(r *wire.Reader) { r.Shape() }},
		"trailing byte": {append(u32(7), 0), func(r *wire.Reader) { r.U32() }},
	} {
		r := wire.NewReader(file(c.fields...), magic)
		c.read(r)
		if err := r.Close(); !errors.Is(err, wire.ErrArtifact) {
			t.Errorf("%s: Close = %v, want wire.ErrArtifact", name, err)
		}
	}

	r = wire.NewReader(wire.AppendShape(wire.AppendName([]byte(magic), "conv0.w"), []int{2, 0, 5}), magic)
	name := string(r.Name())
	shape, vol := r.Shape()
	if err := r.Close(); err != nil || name != "conv0.w" || !slices.Equal(shape, []int{2, 0, 5}) || vol != 0 {
		t.Fatalf("read %q %v (volume %d), %v", name, shape, vol, err)
	}
}

// slowReader hands out one byte at a time and knows no length.
type slowReader struct{ b []byte }

func (s *slowReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	p[0], s.b = s.b[0], s.b[1:]
	return 1, nil
}

// lyingReader reports a length that is not what it holds.
type lyingReader struct {
	slowReader
	claim int
}

func (l *lyingReader) Len() int { return l.claim }

func TestReadAll(t *testing.T) {
	want := tensor.NewRNG(3).FillNormal(tensor.New(700), 0, 1)
	file := wire.AppendFloats(nil, want.Data())
	for name, r := range map[string]io.Reader{
		"bytes.Reader": bytes.NewReader(file),
		"bytes.Buffer": bytes.NewBuffer(append([]byte(nil), file...)),
		"no length":    &slowReader{file},
		"claims less":  &lyingReader{slowReader{file}, 10},
		"claims more":  &lyingReader{slowReader{file}, 1 << 20},
	} {
		got, err := wire.ReadAll(r)
		if err != nil || !bytes.Equal(got, file) {
			t.Errorf("%s: read %d bytes of %d, %v", name, len(got), len(file), err)
		}
	}
	if got, err := wire.ReadAll(bytes.NewReader(nil)); err != nil || len(got) != 0 {
		t.Errorf("empty reader: %d bytes, %v", len(got), err)
	}
}

// TestImportsOnlyTheStandardLibrary keeps wire below tensor and quantize:
// every import of its non-test files is a package of the Go root.
func TestImportsOnlyTheStandardLibrary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil || len(pkg.GoFiles) == 0 {
		t.Fatalf("no non-test file found: %v", err)
	}
	for _, path := range pkg.Imports {
		if p, err := build.Import(path, ".", build.FindOnly); err != nil || !p.Goroot {
			t.Errorf("wire imports %q, which is not in the standard library", path)
		}
	}
}
