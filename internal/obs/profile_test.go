package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestProfilerTableOrderAndTotals accumulates a known workload and checks
// the table preserves execution (first-seen) order and sums calls, wall
// time, and scratch bytes per direction.
func TestProfilerTableOrderAndTotals(t *testing.T) {
	p := NewProfiler(nil)
	p.ObserveLayer("conv1", false, 2*time.Millisecond, 100)
	p.ObserveLayer("relu1", false, 1*time.Millisecond, 50)
	p.ObserveLayer("conv1", false, 4*time.Millisecond, 100)
	p.ObserveLayer("relu1", true, 3*time.Millisecond, 25)

	table := p.Table()
	if len(table) != 2 {
		t.Fatalf("table has %d layers, want 2", len(table))
	}
	if table[0].Layer != "conv1" || table[1].Layer != "relu1" {
		t.Fatalf("table order %q, %q — want execution order conv1, relu1", table[0].Layer, table[1].Layer)
	}
	c := table[0]
	if c.ForwardCalls != 2 || c.ForwardTotal != 6*time.Millisecond || c.ScratchBytes != 200 {
		t.Fatalf("conv1 accumulation wrong: %+v", c)
	}
	if c.ForwardMean() != 3*time.Millisecond {
		t.Fatalf("conv1 forward mean %v, want 3ms", c.ForwardMean())
	}
	r := table[1]
	if r.ForwardCalls != 1 || r.BackwardCalls != 1 || r.BackwardTotal != 3*time.Millisecond {
		t.Fatalf("relu1 accumulation wrong: %+v", r)
	}
	if r.ScratchBytes != 75 {
		t.Fatalf("relu1 scratch %d, want 75 (fwd+bwd)", r.ScratchBytes)
	}
	if c.BackwardMean() != 0 {
		t.Fatalf("mean of zero backward calls must be 0, got %v", c.BackwardMean())
	}
}

// TestProfilerNilNoOp pins the disabled contract: every method is safe and
// inert on a nil profiler, and Track still reports elapsed time.
func TestProfilerNilNoOp(t *testing.T) {
	var p *Profiler
	p.ObserveLayer("x", false, time.Millisecond, 8)
	if got := p.Table(); got != nil {
		t.Fatalf("nil profiler table: %v", got)
	}
	p.Reset()
	stop := p.Track("region")
	if d := stop(); d < 0 {
		t.Fatalf("nil Track elapsed %v", d)
	}
	var buf bytes.Buffer
	p.WriteTable(&buf)
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
}

// TestProfilerRegistryHistograms checks a registry-backed profiler feeds the
// per-layer forward/backward latency histograms under the documented names.
func TestProfilerRegistryHistograms(t *testing.T) {
	reg := NewRegistry()
	p := NewProfiler(reg)
	p.ObserveLayer("fc", false, 2*time.Millisecond, 0)
	p.ObserveLayer("fc", false, 2*time.Millisecond, 0)
	p.ObserveLayer("fc", true, 5*time.Millisecond, 0)
	snap := reg.Snapshot()
	fh := snap.Histograms["profile.forward_seconds.fc"]
	if fh.Count != 2 {
		t.Fatalf("forward histogram count %d, want 2 (snapshot %+v)", fh.Count, snap.Histograms)
	}
	bh := snap.Histograms["profile.backward_seconds.fc"]
	if bh.Count != 1 || bh.Sum < 0.004 || bh.Sum > 0.006 {
		t.Fatalf("backward histogram: %+v", bh)
	}
}

// TestProfilerReset zeroes the accumulators but keeps layer identity (and
// execution order) so a warm-up phase can be discarded before measuring.
func TestProfilerReset(t *testing.T) {
	p := NewProfiler(nil)
	p.ObserveLayer("a", false, time.Millisecond, 10)
	p.ObserveLayer("b", false, time.Millisecond, 10)
	p.Reset()
	table := p.Table()
	if len(table) != 2 || table[0].Layer != "a" || table[1].Layer != "b" {
		t.Fatalf("Reset lost layer identity/order: %+v", table)
	}
	for _, lp := range table {
		if lp.ForwardCalls != 0 || lp.ForwardTotal != 0 || lp.ScratchBytes != 0 {
			t.Fatalf("Reset left residue: %+v", lp)
		}
	}
	p.ObserveLayer("a", false, 2*time.Millisecond, 5)
	if got := p.Table()[0]; got.ForwardCalls != 1 || got.ForwardTotal != 2*time.Millisecond {
		t.Fatalf("post-Reset accumulation wrong: %+v", got)
	}
}

// TestProfilerTrack times a named region as one forward call and returns
// the elapsed duration.
func TestProfilerTrack(t *testing.T) {
	p := NewProfiler(nil)
	before := time.Now()
	stop := p.Track("stage")
	inside := time.Now()
	least := time.Since(inside) // already spent inside the region
	d := stop()
	if most := time.Since(before); d < least || d > most {
		t.Fatalf("Track returned %v for a region that took between %v and %v", d, least, most)
	}
	table := p.Table()
	if len(table) != 1 || table[0].Layer != "stage" || table[0].ForwardCalls != 1 {
		t.Fatalf("Track did not record the region: %+v", table)
	}
	if table[0].ForwardTotal != d {
		t.Fatalf("recorded %v != returned %v", table[0].ForwardTotal, d)
	}
}

// TestProfilerConcurrent hammers ObserveLayer from many goroutines over
// overlapping layer names (run under -race) and checks no call is lost.
func TestProfilerConcurrent(t *testing.T) {
	p := NewProfiler(NewRegistry())
	names := []string{"conv1", "conv2", "fc"}
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.ObserveLayer(names[i%len(names)], i%5 == 0, time.Microsecond, 8)
			}
		}(w)
	}
	wg.Wait()
	var calls int64
	for _, lp := range p.Table() {
		calls += lp.ForwardCalls + lp.BackwardCalls
	}
	if calls != workers*per {
		t.Fatalf("lost observations: %d != %d", calls, workers*per)
	}
}

// TestProfilerRendering checks the text table (layer rows, shares, TOTAL)
// and the CSV form (header + one row per layer).
func TestProfilerRendering(t *testing.T) {
	p := NewProfiler(nil)
	p.ObserveLayer("conv1", false, 3*time.Millisecond, 2048)
	p.ObserveLayer("fc", false, time.Millisecond, 1<<20)

	var txt bytes.Buffer
	p.WriteTable(&txt)
	out := txt.String()
	for _, want := range []string{"conv1", "fc", "TOTAL", "75.0%", "2.0KiB", "1.0MiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}

	var csvBuf bytes.Buffer
	if err := p.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "layer,fwd_calls,") {
		t.Fatalf("CSV output: %q", csvBuf.String())
	}
	if !strings.HasPrefix(lines[1], "conv1,1,0.003,") {
		t.Fatalf("CSV row: %q", lines[1])
	}
}
