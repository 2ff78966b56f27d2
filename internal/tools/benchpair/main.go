// Command benchpair measures a change against a base commit with the
// repository's benchmark, in alternating pairs, and writes what it saw to
// BENCH_<pr>.json; or measures the base against itself, a same-binary
// control, to BENCH_<pr>_control.json; or compares two such files.
//
//	go run ./internal/tools/benchpair -base <ref> -n 10 -pr <n>
//	go run ./internal/tools/benchpair -control -base <ref> -n 10 -pr <n>
//	go run ./internal/tools/benchpair -compare [-aa BENCH_<n>_control.json] BENCH_a.json BENCH_b.json
//
// The base is <ref> exported by git archive to .bench_build/base; the change
// is the working tree the command runs in. Each pair runs
// `bash bench/run.sh --workload <w> --seed 1 --seconds <s> --trace 0`, then
// `--trace 1`, in one tree and then the other — base first in even pairs,
// change first in odd ones — for every workload BENCHMARK.json names, and
// reads the last line of each run: the untraced run gives the end-to-end
// metrics, the traced one the per-layer ones. Per workload and metric the
// file holds each side's median, quartiles and n, and in how many pairs the
// change was the better side. Nothing under bench/ is read but run.sh.
//
// A control runs the one export on both sides: what its per-layer deltas
// show is the host, not a change, and -compare -aa prints them beside a
// change's. A file marked "backfilled" holds only the medians a CHANGES.md
// entry stated for a PR measured before this tool existed (no quartiles,
// and pairs won only where the entry gave them); -compare reads it like
// any other.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// contract is what BENCHMARK.json says about the benchmark.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// line is the last line of a single-workload run.
type line struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// Report is a BENCH_<pr>.json file.
type Report struct {
	PR        int                  `json:"pr"`
	Host      Host                 `json:"host"`
	GoVersion string               `json:"go_version"`
	Base      string               `json:"base_commit"`
	Change    string               `json:"change_commit"`
	Pairs     int                  `json:"pairs"`
	Seconds   int                  `json:"seconds"`
	Workloads map[string]*Workload `json:"workloads"`
	// Control marks a same-binary control: the base against itself.
	Control bool `json:"control,omitempty"`
	// Backfilled marks a file written from a CHANGES.md entry's medians.
	Backfilled bool `json:"backfilled,omitempty"`
}

// Host is where the pairs ran.
type Host struct {
	Name string `json:"name"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
}

// Workload is one workload's pairs: each side's run counts and, per metric,
// its summary.
type Workload struct {
	Runs    map[string]Runs    `json:"runs"` // "base", "change"
	Metrics map[string]*Metric `json:"metrics"`
}

// Runs sums the operations of one side's runs.
type Runs struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Incorrect int   `json:"incorrect"` // runs whose line said correct: false
}

// Metric is one metric of one workload on both sides.
type Metric struct {
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	Base     Summary `json:"base"`
	Change   Summary `json:"change"`
	PairsWon int     `json:"pairs_won"` // pairs in which the change was strictly better
	values   [2][]float64
}

// Summary is a side's median and quartiles over its n runs.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func main() {
	base := flag.String("base", "", "git `ref` of the base to measure the working tree against")
	n := flag.Int("n", 10, "alternating `pairs` of runs per workload")
	pr := flag.Int("pr", 0, "`number` the report file is named after: BENCH_<number>.json")
	control := flag.Bool("control", false, "measure the base against itself, to BENCH_<number>_control.json")
	compare := flag.Bool("compare", false, "print the delta table of two report files named as arguments")
	aa := flag.String("aa", "", "with -compare, a control `file` whose per-layer deltas are printed beside the change's")
	flag.Parse()
	c, err := readContract("BENCHMARK.json")
	if err == nil {
		switch {
		case *compare && flag.NArg() == 2:
			err = compareFiles(os.Stdout, c, flag.Arg(0), flag.Arg(1), *aa)
		case !*compare && flag.NArg() == 0 && *base != "" && *n > 0 && *pr > 0:
			err = measure(c, *base, *n, *pr, *control)
		default:
			err = fmt.Errorf("usage: benchpair [-control] -base <ref> -n <pairs> -pr <number> | benchpair -compare [-aa control.json] a.json b.json")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := new(contract)
	return c, json.Unmarshal(b, c)
}

// measure runs the pairs and writes BENCH_<pr>.json, or, as a control, the
// base against itself to BENCH_<pr>_control.json.
func measure(c *contract, ref string, pairs, pr int, control bool) error {
	baseDir := filepath.Join(".bench_build", "base")
	if err := os.RemoveAll(baseDir); err != nil {
		return err
	}
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return err
	}
	tree, err := exec.Command("git", "archive", ref).Output()
	if err != nil {
		return fmt.Errorf("exporting %s: %w", ref, err)
	}
	extract := exec.Command("tar", "-x", "-C", baseDir)
	extract.Stdin = bytes.NewReader(tree)
	if err := extract.Run(); err != nil {
		return fmt.Errorf("extracting %s: %w", ref, err)
	}
	r := &Report{PR: pr, Pairs: pairs, Seconds: c.RunSeconds, Workloads: map[string]*Workload{}, Control: control}
	r.Host.Name, _ = os.Hostname()
	r.Host.OS, r.Host.Arch, r.Host.CPUs = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
	r.GoVersion = output("go", "version")
	r.Base = output("git", "rev-parse", ref)
	r.Change = output("git", "describe", "--always", "--dirty", "--abbrev=40")
	trees := [2]string{baseDir, "."}
	name := fmt.Sprintf("BENCH_%d.json", pr)
	if control {
		trees[1] = baseDir
		r.Change = r.Base
		name = fmt.Sprintf("BENCH_%d_control.json", pr)
	}
	for p := 0; p < pairs; p++ {
		for _, w := range c.Workloads {
			wl := r.Workloads[w.Name]
			if wl == nil {
				wl = &Workload{Runs: map[string]Runs{}, Metrics: map[string]*Metric{}}
				r.Workloads[w.Name] = wl
			}
			for k := 0; k < 2; k++ {
				side := k ^ p&1 // base first in even pairs
				for trace, specs := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
					fmt.Fprintf(os.Stderr, "pair %d/%d %s %s trace %d\n", p+1, pairs, w.Name, sideName[side], trace)
					l, err := runOnce(trees[side], w.Name, c.RunSeconds, trace)
					if err != nil {
						return err
					}
					wl.add(specs, side, l)
				}
			}
		}
	}
	for _, wl := range r.Workloads {
		wl.summarize()
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return err
	}
	printTable(os.Stdout, c, r, r, true, nil)
	return nil
}

var sideName = [2]string{"base", "change"}

// output is a command's trimmed standard output, or "unknown".
func output(name string, args ...string) string {
	b, err := exec.Command(name, args...).Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// runOnce runs one workload once in dir and parses the last line it prints.
func runOnce(dir, workload string, seconds, trace int) (*line, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload, "--seed", "1",
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	return parseLast(out.Bytes())
}

// parseLast parses the last non-empty line of a run's output.
func parseLast(out []byte) (*line, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	l := new(line)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), l); err != nil {
		return nil, fmt.Errorf("last line of the run: %w", err)
	}
	return l, nil
}

// add files one run's line under side (0 base, 1 change): the metrics of
// specs, with their direction and bound.
func (wl *Workload) add(specs []metricSpec, side int, l *line) {
	runs := wl.Runs[sideName[side]]
	runs.Attempted += l.Attempted
	runs.Failed += l.Failed
	if !l.Correct {
		runs.Incorrect++
	}
	wl.Runs[sideName[side]] = runs
	for _, spec := range specs {
		v, ok := l.Metrics[spec.Name]
		if !ok {
			continue
		}
		m := wl.Metrics[spec.Name]
		if m == nil {
			m = &Metric{Unit: spec.Unit, Better: spec.Better, Bound: spec.Bound}
			wl.Metrics[spec.Name] = m
		}
		m.values[side] = append(m.values[side], v.Value)
	}
}

// summarize turns each metric's values into the two summaries and the pairs
// the change won: pair i is the i-th value of each side.
func (wl *Workload) summarize() {
	for _, m := range wl.Metrics {
		m.Base, m.Change = summary(m.values[0]), summary(m.values[1])
		for i := 0; i < min(len(m.values[0]), len(m.values[1])); i++ {
			if m.better(m.values[1][i], m.values[0][i]) {
				m.PairsWon++
			}
		}
	}
}

// better reports whether a is strictly better than b in the metric's
// direction.
func (m *Metric) better(a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// summary is the median and the quartiles of xs, the quartiles by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), as bench/
// computes the spread its bounds are judged against.
func summary(xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return Summary{}
	case 1:
		return Summary{s[0], s[0], s[0], 1}
	}
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1
		lo := min(max(int(math.Floor(pos)), 0), n-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	mid := s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	return Summary{Median: mid, Q1: at(0.25), Q3: at(0.75), N: n}
}

// compareFiles prints the delta table from report a to report b, with the
// per-layer deltas of the control report aa beside it when aa is named.
func compareFiles(w io.Writer, c *contract, a, b, aa string) error {
	ra, err := readReport(a)
	if err != nil {
		return err
	}
	rb, err := readReport(b)
	if err != nil {
		return err
	}
	var control *Report
	if aa != "" {
		if control, err = readReport(aa); err != nil {
			return err
		}
		if !control.Control {
			return fmt.Errorf("%s is not a control: it does not run the base against itself", aa)
		}
	}
	printTable(w, c, ra, rb, false, control)
	return nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Report)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printTable prints, per workload and metric, the median before and after
// and the change in percent. A gated metric (BENCHMARK.json's end-to-end
// list) shows its bound and whether the change is worse by more, or, when
// the before side's interquartile range is wider than the bound, that one
// median cannot tell (a backfilled file has no quartiles); a timing
// shows the pairs b's change won, and, given a control, the control's own
// delta, what the host alone moved it by. Before is a's change side, or with
// paired set, b's own base side.
func printTable(w io.Writer, c *contract, a, b *Report, paired bool, control *Report) {
	gated := map[string]bool{}
	for _, spec := range c.EndToEnd {
		gated[spec.Name] = true
	}
	aaHead := ""
	if control != nil {
		aaHead = fmt.Sprintf("  %8s", "a/a")
	}
	fmt.Fprintf(w, "%-14s %-32s %14s %14s %8s%s  %s\n", "workload", "metric", "before", "after", "delta", aaHead, "verdict")
	for _, wname := range sortedKeys(b.Workloads) {
		wb, wa := b.Workloads[wname], a.Workloads[wname]
		if wa == nil {
			continue
		}
		for _, name := range sortedKeys(wb.Metrics) {
			mb, ma := wb.Metrics[name], wa.Metrics[name]
			if ma == nil {
				continue
			}
			base, after := ma.Change, mb.Change.Median
			if paired {
				base = mb.Base
			}
			before := base.Median
			delta := percent(before, after)
			aaCol := ""
			if control != nil {
				aaCol = fmt.Sprintf("  %8s", "")
				if wc := control.Workloads[wname]; wc != nil && wc.Metrics[name] != nil && !gated[name] {
					mc := wc.Metrics[name]
					aaCol = fmt.Sprintf("  %+7.2f%%", percent(mc.Base.Median, mc.Change.Median))
				}
			}
			verdict := "-" // a backfilled median without its pairs
			if n := min(mb.Base.N, mb.Change.N); n > 0 {
				verdict = fmt.Sprintf("%d/%d", mb.PairsWon, n)
			}
			if gated[name] {
				worse := delta / 100
				if mb.Better == "higher" {
					worse = -worse
				}
				verdict = fmt.Sprintf("bound %g%%: ok", 100*mb.Bound)
				if worse > mb.Bound {
					verdict = fmt.Sprintf("bound %g%%: WORSE", 100*mb.Bound)
				}
				if iqr := (base.Q3 - base.Q1) / math.Abs(before); iqr > mb.Bound {
					verdict = fmt.Sprintf("bound %g%%: unresolved (IQR %.0f%%)", 100*mb.Bound, 100*iqr)
				}
			}
			fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g %+7.2f%%%s  %s\n", wname, name, before, after, delta, aaCol, verdict)
		}
	}
}

// percent is the change from before to after in percent of before, 0 when
// before is.
func percent(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (after - before) / math.Abs(before)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
