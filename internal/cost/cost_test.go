package cost

import (
	"math"
	"testing"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

func TestProfileLeNetKnownValues(t *testing.T) {
	spec := model.LeNet()
	net := spec.Build(tensor.NewRNG(1))
	prof := Profile(net, []int{1, 28, 28})
	if len(prof) != net.Len() {
		t.Fatalf("profile has %d entries for %d layers", len(prof), net.Len())
	}
	// conv0: 6 out-channels × 24×24 positions × 1×5×5 window.
	if prof[0].MACs != 6*24*24*25 {
		t.Fatalf("conv0 MACs = %d", prof[0].MACs)
	}
	if prof[0].OutVals != 6*24*24 {
		t.Fatalf("conv0 OutVals = %d", prof[0].OutVals)
	}
	if prof[0].OutBytes != int64(6*24*24*BytesPerValue) {
		t.Fatalf("conv0 OutBytes = %d", prof[0].OutBytes)
	}
	// ReLU and pooling contribute no MACs in this model.
	if prof[1].MACs != 0 || prof[2].MACs != 0 {
		t.Fatal("activation/pool layers should have zero MACs")
	}
	// Final linear layer: 84×10.
	last := prof[len(prof)-1]
	if last.MACs != 84*10 {
		t.Fatalf("fc2 MACs = %d", last.MACs)
	}
}

func TestCutCostsEdgeMACsMonotonic(t *testing.T) {
	for _, spec := range model.All() {
		costs, err := CutCosts(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(costs) != len(spec.CutPoints) {
			t.Fatalf("%s: %d costs for %d cut points", spec.Name, len(costs), len(spec.CutPoints))
		}
		for i := 1; i < len(costs); i++ {
			if costs[i].EdgeMACs <= costs[i-1].EdgeMACs {
				t.Errorf("%s: edge MACs not increasing at %s", spec.Name, costs[i].Cut)
			}
		}
		for _, c := range costs {
			if c.CommBytes <= 0 || c.EdgeMACs <= 0 || c.Product <= 0 {
				t.Errorf("%s %s: non-positive cost %+v", spec.Name, c.Cut, c)
			}
		}
	}
}

// The paper picks SVHN conv6 because its activation is far smaller than
// earlier cuts: communication bytes at conv6 must undercut conv0.
func TestSvhnConv6CommunicationDrops(t *testing.T) {
	costs, err := CutCosts(model.SvhnNet())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CutCost{}
	for _, c := range costs {
		byName[c.Cut] = c
	}
	if byName["conv6"].CommBytes*10 > byName["conv0"].CommBytes {
		t.Fatalf("conv6 comm (%d) should be ≪ conv0 comm (%d)",
			byName["conv6"].CommBytes, byName["conv0"].CommBytes)
	}
}

func TestKiloMACxMB(t *testing.T) {
	// 2000 MACs × 3,000,000 bytes = 2 KMAC × 3 MB = 6.
	if got := KiloMACxMB(2000, 3_000_000); math.Abs(got-6) > 1e-12 {
		t.Fatalf("KiloMACxMB = %v", got)
	}
}

func TestProfileMatchesForwardShapes(t *testing.T) {
	// OutVals in the profile must equal the actual forward activation size.
	spec := model.CifarNet()
	net := spec.Build(tensor.NewRNG(2))
	prof := Profile(net, spec.Dataset.SampleShape())
	ds := spec.Dataset.Generate(1, 3)
	x := ds.Images
	var cur = x
	for i := 0; i < net.Len(); i++ {
		plan, err := nn.CompileRange(net, i, i+1, nn.Float64)
		if err != nil {
			t.Fatal(err)
		}
		cur = plan.Infer(cur)
		if cur.Len() != prof[i].OutVals {
			t.Fatalf("layer %s: forward size %d != profiled %d", net.Layer(i).Name(), cur.Len(), prof[i].OutVals)
		}
	}
}
