// Command bench is the repository's benchmark: four edge→cloud workloads,
// each run through the phases prepare → train → deploy → serve → count →
// evaluate in one process over loopback TCP. README.md defines every metric
// and records why the workloads and the load shape were chosen.
//
//	bash bench/run.sh -workload all              every workload, human-readable tables
//	bash bench/run.sh -workload edge_lenet -trace trace.jsonl
//	bash bench/run.sh -repeat 10                 two sets of five runs, compared against the bounds
//
// Run for a single workload, the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace on).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string // "0" = off, "1" = on with a default file, else the file to write
	quick    bool
	repeat   int
	tmp      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload `name`, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "measured one-second serve slices per workload")
	flag.StringVar(&o.trace, "trace", "0", "0 = untraced run; 1 or a `file` = traced run, spans written as JSON lines")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale: tiny models, 2 slices of 0.2 s")
	flag.IntVar(&o.repeat, "repeat", 0, "run the suite `n` times, deal the runs into two sets and compare their medians")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "`dir` for weight caches, noise files and default trace files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := o.run(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes what the flags ask for. ok is false when a suite run saw a
// failed operation or a repeat comparison exceeded a bound; a single
// workload run reports that in its JSON line and exit code 0 instead, so
// that a driver can read the result.
func (o options) run(out io.Writer) (ok bool, err error) {
	if o.seconds < 1 {
		return false, fmt.Errorf("-seconds %d: need at least one slice", o.seconds)
	}
	if o.repeat > 0 {
		if o.repeat < 2 {
			return false, fmt.Errorf("-repeat %d: two sets need at least two runs", o.repeat)
		}
		return o.runRepeat(out)
	}
	ws, err := o.selected()
	if err != nil {
		return false, err
	}
	ok = true
	for _, w := range ws {
		res, err := o.runOne(w, o.seed, out, true)
		if err != nil {
			return false, err
		}
		ok = ok && res.correct
	}
	return ok || o.workload != "all", nil
}

// selected returns the workloads -workload names.
func (o options) selected() ([]workload, error) {
	if o.workload == "all" {
		return workloads, nil
	}
	w, found := workloadByName(o.workload)
	if !found {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return []workload{w}, nil
}

func (o options) traced() bool { return o.trace != "0" }

// runOne runs w once, prints its table (if asked to) and its JSON line, and
// writes the span file of a traced run.
func (o options) runOne(w workload, seed int64, out io.Writer, table bool) (*result, error) {
	sc := fullScale(o.seconds)
	if o.quick {
		w, sc = w.quick(), quickScale
	}
	var tr *tracer
	if o.traced() {
		tr = newTracer(12 * w.countN)
	}
	res, err := runWorkload(w, sc, seed, o.tmp, tr)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		path := o.trace
		if path == "1" {
			path = filepath.Join(o.tmp, "trace-"+w.name+".jsonl")
		} else if o.workload == "all" {
			path = strings.TrimSuffix(path, filepath.Ext(path)) + "-" + w.name + filepath.Ext(path)
		}
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# %s: %d spans, %d counts written to %s\n", w.name, len(tr.spans), len(tr.counts), path)
	}
	if table {
		printResult(out, res, tr != nil)
	}
	line, err := jsonLine(res, tr != nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, line)
	// Give the next workload of a suite the heap this one grew back.
	runtime.GC()
	debug.FreeOSMemory()
	return res, nil
}

// printResult writes every metric the run measured by name with its unit,
// and the operation counts of every phase.
func printResult(out io.Writer, res *result, traced bool) {
	fmt.Fprintf(out, "# workload %s seed %d\n", res.workload, res.seed)
	fmt.Fprintf(out, "%-12s %10s %10s %10s\n", "phase", "attempted", "succeeded", "failed")
	for _, p := range res.phases {
		fmt.Fprintf(out, "%-12s %10d %10d %10d\n", p.name, p.attempted, p.attempted-p.failed, p.failed)
	}
	defs := append(append([]metricDef{}, endToEnd...), ungatedTimings...)
	if traced {
		defs = append(append([]metricDef{}, endToEnd...), perLayer...)
	}
	for _, m := range defs {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", m.name, res.values[m.name], m.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "! %s\n", p)
	}
	// The samples behind every metric that is a median of repetitions.
	for _, m := range defs {
		if xs := res.samples[m.name]; len(xs) > 0 {
			fmt.Fprintf(out, "# samples %s:", m.name)
			for _, x := range xs {
				fmt.Fprintf(out, " %.4g", x)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "# wall: %s\n", strings.Join(res.timeline, ", "))
}

// jsonLine is the machine-readable result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func jsonLine(res *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := res.values[m.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.workload, m.name)
		}
		metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted(), res.failed(), metrics})
	return string(b), err
}

// runRepeat is the tool behind the benchmark's steadiness claim. It runs
// the suite o.repeat times in one process, run i with seed o.seed + i/2 in
// set i%2, so that both sets see the same seeds, as two passes of a driver
// would. For every workload and end-to-end metric it prints each set's
// median and spread (interquartile range over median), the gap between the
// two medians, and the bound; a gap over the bound, in either direction,
// makes the exit code non-zero. The ungated timings follow, judged against
// nothing.
func (o options) runRepeat(out io.Writer) (bool, error) {
	ws, err := o.selected()
	if err != nil {
		return false, err
	}
	// sets[set][workload][metric] -> one value per run
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
	}
	defs := append(append([]metricDef{}, endToEnd...), ungatedTimings...)
	clean := true
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i/2)
		for _, w := range ws {
			fmt.Fprintf(out, "# run %d/%d set %c: %s seed %d\n", i+1, o.repeat, 'A'+i%2, w.name, seed)
			res, err := o.runOne(w, seed, out, false)
			if err != nil {
				return false, err
			}
			for _, p := range res.problems {
				fmt.Fprintf(out, "! %s\n", p)
			}
			clean = clean && res.correct
			byMetric := sets[i%2][w.name]
			if byMetric == nil {
				byMetric = map[string][]float64{}
				sets[i%2][w.name] = byMetric
			}
			for _, m := range defs {
				byMetric[m.name] = append(byMetric[m.name], res.values[m.name])
			}
		}
	}
	fmt.Fprintf(out, "\n# %d runs per workload: set A = runs 1,3,..., set B = runs 2,4,...; seeds %d..%d in both\n",
		o.repeat, o.seed, o.seed+int64((o.repeat-1)/2))
	fmt.Fprintf(out, "%-14s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "gap B/A", "bound", "verdict")
	for _, w := range ws {
		for _, m := range defs {
			a, b := sets[0][w.name][m.name], sets[1][w.name][m.name]
			gap := worsening(median(a), median(b), m.higher)
			verdict := "ok"
			switch {
			case m.bound == 0:
				verdict = "ungated"
			case math.Abs(gap) > m.bound:
				verdict, clean = "OVER", false
			}
			fmt.Fprintf(out, "%-14s %-20s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, m.name, median(a), median(b), 100*relSpread(a), 100*relSpread(b), 100*gap, 100*m.bound, verdict)
		}
	}
	return clean, nil
}

// worsening is the share of |a| by which b is worse than a; negative when b
// is better.
func worsening(a, b float64, higher bool) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if higher {
		return -d
	}
	return d
}
