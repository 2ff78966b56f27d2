package core

import (
	"reflect"
	"sync"
	"testing"

	"shredder/internal/model"
	"shredder/internal/obs"
	"shredder/internal/race"
	"shredder/internal/tensor"
)

// TestEdgeEqualsHandLoop holds Edge.Step to the loop the facade, the client
// and the pool each carried before it — written out here — for every kind of
// source and for none, over batches of 1, 3 and 32, two calls in a row: the
// noised activation, the attribution and everything the monitor registered
// are the same bits.
func TestEdgeEqualsHandLoop(t *testing.T) {
	split, ds := pinRig(t, model.LeNet(), "conv0", 32)
	srcs := pinSources(t, split.ActivationShape())
	srcs["none"] = nil
	const seed = 41
	for name, src := range srcs {
		for _, n := range []int{1, 3, 32} {
			x := ds.Batches(n)[0].Images
			regE, regH := obs.NewRegistry(), obs.NewRegistry()
			edge := NewEdge(split, src, seed)
			edge.Monitor = NewPrivacyMonitor(regE, src, 2, 2) // alerts below 2, every 2nd query measured
			mon := NewPrivacyMonitor(regH, src, 2, 2)
			rng := tensor.NewRNG(seed)
			var scratch DrawScratch
			var got *tensor.Tensor
			for call := 0; call < 2; call++ {
				want, wantAt := split.Local(x), Attribution{}
				if src != nil {
					wantAt = Attribution{Mode: src.Mode(), Member: -2}
					for i := 0; i < n; i++ {
						d := src.DrawInto(&scratch, rng)
						if inv, sampled := mon.Observe(d, want.Slice(i)); sampled {
							wantAt.InVivo, wantAt.Sampled = inv, true
						}
						if n == 1 {
							wantAt.Member = int32(d.Member)
						}
						d.ApplyInPlace(want.Slice(i))
					}
				}
				var at Attribution
				got, at = edge.Step(got, x) // the second call runs in the first one's tensor
				if !tensor.BitEqual(got, want) {
					t.Fatalf("%s, batch of %d, call %d: the edge's activation differs from the hand loop's", name, n, call)
				}
				if at != wantAt {
					t.Fatalf("%s, batch of %d, call %d: attribution %+v, want %+v", name, n, call, at, wantAt)
				}
			}
			if e, h := regE.Snapshot(), regH.Snapshot(); !reflect.DeepEqual(e.Counters, h.Counters) ||
				!reflect.DeepEqual(e.Gauges, h.Gauges) || !reflect.DeepEqual(e.Histograms, h.Histograms) {
				t.Fatalf("%s, batch of %d: the monitors disagree:\nedge %+v\nhand %+v", name, n, e, h)
			}
			if src != nil && edge.Monitor.Queries() != int64(2*n) {
				t.Fatalf("%s, batch of %d: %d queries observed, want %d", name, n, edge.Monitor.Queries(), 2*n)
			}
		}
	}
}

// TestEdgeConcurrent drives one Edge from 16 goroutines (run under -race):
// the monitor counts exactly the samples sent, and every output is its clean
// activation under exactly one draw — for the stored multiplicative source
// the member the attribution names, or for a larger batch one member per row.
func TestEdgeConcurrent(t *testing.T) {
	split, ds := pinRig(t, model.LeNet(), "conv0", 16*3)
	srcs := pinSources(t, split.ActivationShape())
	for _, name := range []string{"stored-mul", ModeFittedMul} {
		src := srcs[name]
		col, _ := src.(*Collection)
		edge := NewEdge(split, src, 43)
		edge.Monitor = NewPrivacyMonitor(obs.NewRegistry(), src, 0, 3)
		const workers, calls = 16, 64
		var wg sync.WaitGroup
		var sent [workers]int
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				one, three := ds.Batches(1)[w].Images, ds.Batches(3)[w].Images
				var a *tensor.Tensor
				for c := 0; c < calls; c++ {
					x := one
					if c%4 == 3 {
						x = three
					}
					n := x.Dim(0)
					var at Attribution
					a, at = edge.Step(a, x)
					sent[w] += n
					if at.Mode != src.Mode() || (n > 1 && at.Member != -2) {
						t.Errorf("%s: attribution %+v for a batch of %d", name, at, n)
						return
					}
					clean := split.Local(x)
					for i := 0; i < n; i++ {
						if tensor.BitEqual(a.Slice(i), clean.Slice(i)) {
							t.Errorf("%s: a sample left the edge clean", name)
							return
						}
						if col != nil && !oneDrawApart(col, a.Slice(i), clean.Slice(i), n, at.Member) {
							t.Errorf("%s: a sample is not its clean activation under one member", name)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, n := range sent {
			total += n
		}
		if got := edge.Monitor.Queries(); got != int64(total) {
			t.Errorf("%s: privacy.queries %d, %d samples sent", name, got, total)
		}
	}
}

// oneDrawApart reports whether noisy is clean under one member of col: the
// attributed one for a batch of one, any for a row of a larger batch.
func oneDrawApart(col *Collection, noisy, clean *tensor.Tensor, n int, member int32) bool {
	for m := range col.Members {
		if n == 1 && m != int(member) {
			continue
		}
		d := Draw{Member: m, Noise: col.Members[m], Weight: col.Weights[m]}
		if tensor.BitEqual(d.ApplyInPlace(clean.Clone()), noisy) {
			return true
		}
	}
	return false
}

// TestEdgeDoesNotAllocate: a warm edge step of one sample — into the
// activation of the last one, monitor measuring every query — allocates
// nothing, stored or fitted.
func TestEdgeDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	split, ds := pinRig(t, model.LeNet(), "conv0", 1)
	for name, src := range pinSources(t, split.ActivationShape()) {
		edge := NewEdge(split, src, 47)
		edge.Monitor = NewPrivacyMonitor(obs.NewRegistry(), src, 1, 1)
		a, _ := edge.Step(nil, ds.Images)
		if n := testing.AllocsPerRun(100, func() { a, _ = edge.Step(a, ds.Images) }); n != 0 {
			t.Errorf("%s: a warm edge step allocates %v times, want 0", name, n)
		}
	}
}
