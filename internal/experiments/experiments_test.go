package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// quickCfg runs experiments at CI scale on LeNet only — every code path,
// minimal time.
func quickCfg(t *testing.T, nets ...string) Config {
	t.Helper()
	return Config{Workdir: t.TempDir(), Quick: true, Seed: 7, Networks: nets}
}

func TestTable1QuickLeNet(t *testing.T) {
	res, err := Table1(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Benchmark != "lenet" {
		t.Fatalf("row benchmark %q", row.Benchmark)
	}
	if row.OriginalMI <= 0 {
		t.Fatalf("original MI %v should be positive", row.OriginalMI)
	}
	if row.ShreddedMI >= row.OriginalMI {
		t.Fatalf("shredded MI %v not below original %v", row.ShreddedMI, row.OriginalMI)
	}
	if row.MILossPct <= 0 {
		t.Fatalf("MI loss %v%%", row.MILossPct)
	}
	if row.ParamsPct <= 0 || row.ParamsPct >= 100 {
		t.Fatalf("params ratio %v%%", row.ParamsPct)
	}
	if row.BaselineAcc < 0.3 {
		t.Fatalf("baseline accuracy %v too low", row.BaselineAcc)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "lenet", "MI Loss", "Accuracy Loss", "GMean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFig3QuickLeNet(t *testing.T) {
	res, err := Fig3(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("got %d series", len(res.Series))
	}
	s := res.Series[0]
	if len(s.Points) != len(fig3Ops(true)) {
		t.Fatalf("got %d points", len(s.Points))
	}
	if s.ZeroLeakage <= 0 {
		t.Fatalf("zero leakage %v", s.ZeroLeakage)
	}
	// Points must be sorted by accuracy loss.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].AccLossPct < s.Points[i-1].AccLossPct {
			t.Fatal("points not sorted by accuracy loss")
		}
	}
	// Information loss should not exceed the zero-leakage bound by much
	// (estimator noise aside).
	for _, p := range s.Points {
		if p.InfoLossBits > s.ZeroLeakage*1.5 {
			t.Fatalf("info loss %v far beyond zero leakage %v", p.InfoLossBits, s.ZeroLeakage)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Zero Leakage") {
		t.Fatal("render missing zero leakage line")
	}
}

func TestFig4QuickLeNet(t *testing.T) {
	res, err := Fig4(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shredder) == 0 || len(res.Regular) == 0 {
		t.Fatal("missing traces")
	}
	// Shredder's loss must leave more noise in play than regular training:
	// final in vivo privacy gap positive (Figure 4a's separation).
	if gap := res.Shredder[len(res.Shredder)-1].InVivo - res.Regular[len(res.Regular)-1].InVivo; gap <= 0 {
		t.Fatalf("final in vivo gap %v, want positive", gap)
	}
	// Regular training's in vivo privacy must decline from its peak (the
	// black line of Fig. 4a trends down once CE pressure sets in).
	peak, last := 0.0, res.Regular[len(res.Regular)-1].InVivo
	for _, e := range res.Regular {
		if e.InVivo > peak {
			peak = e.InVivo
		}
	}
	if last >= peak {
		t.Fatalf("regular training privacy never declined: peak %v, last %v", peak, last)
	}
	// Shredder's trace must end above where it started (the orange line).
	if res.Shredder[len(res.Shredder)-1].InVivo <= res.Shredder[0].InVivo {
		t.Fatal("shredder training privacy did not increase")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("render header missing")
	}
}

func TestFig5QuickLeNet(t *testing.T) {
	res, err := Fig5(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Networks) != 1 {
		t.Fatalf("got %d networks", len(res.Networks))
	}
	net := res.Networks[0]
	if len(net.Series) != 3 { // lenet: conv0, conv1, conv2
		t.Fatalf("got %d series", len(net.Series))
	}
	for _, s := range net.Series {
		if len(s.Points) == 0 {
			t.Fatalf("cut %s has no points", s.Cut)
		}
		// More noise must give at least as much in vivo privacy.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].InVivo <= s.Points[i-1].InVivo {
				t.Fatalf("cut %s: in vivo not increasing with scale", s.Cut)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "conv2") {
		t.Fatal("render missing cut rows")
	}
}

func TestFig5UnknownNetworkFails(t *testing.T) {
	if _, err := Fig5(quickCfg(t, "cifar")); err == nil {
		t.Fatal("fig5 should reject networks without a cut list")
	}
}

func TestFig6QuickLeNet(t *testing.T) {
	res, err := Fig6(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	net := res.Networks[0]
	if len(net.Points) != 3 {
		t.Fatalf("got %d points", len(net.Points))
	}
	chosen := 0
	for i, p := range net.Points {
		if p.Chosen {
			chosen++
		}
		if p.CostKMACMB <= 0 {
			t.Fatalf("point %s has non-positive cost", p.Cut)
		}
		if i > 0 && p.EdgeMACs <= net.Points[i-1].EdgeMACs {
			t.Fatal("edge MACs not increasing with depth")
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen cuts, want exactly 1", chosen)
	}
	if !net.Points[len(net.Points)-1].Chosen {
		t.Fatal("chosen cut should be the deepest (lenet conv2)")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Shredder's cutting point") {
		t.Fatal("render missing chosen-cut marker")
	}
}

func TestBenchmarksForFilter(t *testing.T) {
	if got := len(benchmarksFor(Config{})); got != 4 {
		t.Fatalf("unfiltered benchmarks = %d", got)
	}
	got := benchmarksFor(Config{Networks: []string{"svhn", "lenet"}})
	if len(got) != 2 {
		t.Fatalf("filtered benchmarks = %d", len(got))
	}
}

func TestFittedQuickLeNet(t *testing.T) {
	res, err := Fitted(quickCfg(t, "lenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want stored/fitted/fitted-mul", len(res.Rows))
	}
	modes := map[string]FittedRow{}
	for _, row := range res.Rows {
		if row.Benchmark != "lenet" || row.Members <= 0 {
			t.Fatalf("bad row %+v", row)
		}
		modes[row.Mode] = row
	}
	for _, m := range []string{"stored", "fitted", "fitted-mul"} {
		if _, ok := modes[m]; !ok {
			t.Fatalf("mode %q missing (have %v)", m, res.Rows)
		}
	}
	// Fitted mode keeps sketches + orderings resident, never the K
	// trained float64 tensors, so it must come in under stored mode.
	if modes["fitted"].MemoryBytes >= modes["stored"].MemoryBytes {
		t.Fatalf("fitted %d B not below stored %d B",
			modes["fitted"].MemoryBytes, modes["stored"].MemoryBytes)
	}

	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"stored", "fitted", "fitted-mul", "resident B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", lines)
	}
}
