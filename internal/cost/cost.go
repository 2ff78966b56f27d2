// Package cost implements the edge-device cost model of the paper's
// cutting-point analysis (§3.4, Figure 6): cumulative computation (MACs)
// of the layers run on the edge, communication (bytes of the transmitted
// activation), and the combined Computation × Communication cost of a
// cutting point.
package cost

import (
	"fmt"

	"shredder/internal/model"
	"shredder/internal/nn"
	"shredder/internal/tensor"
)

// BytesPerValue is the wire size of one activation element. The paper's
// communication axis is MB of activation data; we model float32 transport
// (4 bytes), the standard inference wire format.
const BytesPerValue = 4

// maccer is implemented by layers with a non-trivial MAC count.
type maccer interface {
	MACs(in []int) int64
}

// LayerCost is the cost contribution of a single layer.
type LayerCost struct {
	Name     string
	MACs     int64 // multiply-accumulates of this layer, per sample
	OutVals  int   // elements of this layer's output, per sample
	OutBytes int64 // wire size of this layer's output
}

// Profile computes per-layer costs for a network on the given per-sample
// input shape.
func Profile(net *nn.Sequential, in []int) []LayerCost {
	out := make([]LayerCost, net.Len())
	shape := append([]int(nil), in...)
	for i := 0; i < net.Len(); i++ {
		l := net.Layer(i)
		var macs int64
		if m, ok := l.(maccer); ok {
			macs = m.MACs(shape)
		}
		shape = l.OutShape(shape)
		vals := tensor.Volume(shape)
		out[i] = LayerCost{Name: l.Name(), MACs: macs, OutVals: vals, OutBytes: int64(vals) * BytesPerValue}
	}
	return out
}

// CutCost is the edge-side cost of choosing one cutting point.
type CutCost struct {
	// Cut is the paper-facing cut name (e.g. "conv6").
	Cut string
	// Layer is the Sequential layer after which the split happens.
	Layer string
	// EdgeMACs is the cumulative computation of all layers up to and
	// including the cut layer — monotonically increasing with depth.
	EdgeMACs int64
	// CommBytes is the wire size of the transmitted activation — not
	// monotonic, since layer outputs can grow or shrink.
	CommBytes int64
	// Product is the paper's total cost model, KiloMAC × MB.
	Product float64
}

// KiloMACxMB returns the paper's cost product for raw MACs and bytes.
func KiloMACxMB(macs, bytes int64) float64 {
	return float64(macs) / 1e3 * float64(bytes) / 1e6
}

// CutCosts evaluates every cutting point of a spec against its network built
// with shapes only (costs depend only on topology, not weights).
func CutCosts(spec model.Spec) ([]CutCost, error) {
	net := spec.Build(nil)
	profile := Profile(net, spec.Dataset.SampleShape())
	out := make([]CutCost, 0, len(spec.CutPoints))
	for _, cp := range spec.CutPoints {
		idx := net.Index(cp.Layer)
		if idx < 0 {
			return nil, fmt.Errorf("cost: cut layer %q not in network %s", cp.Layer, spec.Name)
		}
		var macs int64
		for i := 0; i <= idx; i++ {
			macs += profile[i].MACs
		}
		cc := CutCost{
			Cut:       cp.Name,
			Layer:     cp.Layer,
			EdgeMACs:  macs,
			CommBytes: profile[idx].OutBytes,
		}
		cc.Product = KiloMACxMB(cc.EdgeMACs, cc.CommBytes)
		out = append(out, cc)
	}
	return out, nil
}
