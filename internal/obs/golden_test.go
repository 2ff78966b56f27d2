package obs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestDebugSpansGolden: the /debug/spans bodies of a fixed, wrapped ring are
// the bytes recorded before ring slots kept their own stage and attribute
// storage, when a span's annotations were a map.
func TestDebugSpansGolden(t *testing.T) {
	ring := NewSpanRing(3)
	start := time.Unix(1700000000, 123456789).UTC()
	for i := 0; i < 5; i++ {
		s := Span{
			Trace: TraceID(0xabc0 + i), Name: "serve", ID: uint64(i),
			Start: start.Add(time.Duration(i) * time.Millisecond), Dur: time.Duration(1000+i) * time.Microsecond,
		}
		switch i % 3 {
		case 0:
			s.Stages = []Stage{{"queue", 10 * time.Microsecond}, {"batch", 2 * time.Microsecond}, {"compute", time.Duration(900+i) * time.Microsecond}}
			s.Attrs = Attrs{{"batch_size", 2}, {"batch_weight", 2.5}}
		case 1:
			s.Stages = []Stage{{"compute", time.Duration(950+i) * time.Microsecond}}
		case 2:
			s.Name, s.Err = "infer", "timeout: inference exceeded handler timeout 50ms"
			s.Attrs = Attrs{{"server_elapsed_ns", 1e6 / 3}}
		}
		ring.Record(s, nil, nil)
	}
	ts := httptest.NewServer(Debug{Spans: ring}.Handler())
	defer ts.Close()
	var got bytes.Buffer
	for _, path := range []string{"/debug/spans", "/debug/spans?n=2"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "GET %s\n%s\n%s", path, resp.Status, body)
	}
	const golden = "testdata/debug_spans.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("/debug/spans bodies changed:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
