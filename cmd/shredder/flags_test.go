package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"shredder"
	"shredder/internal/obs"
)

// TestTelemetryFlags: the window/SLO flags serve and gateway share, from the
// command line to the window options and objectives they stand for.
func TestTelemetryFlags(t *testing.T) {
	floor := func(target float64) obs.Objective {
		return obs.Objective{Name: "privacy.invivo", Metric: "privacy.invivo",
			Aggregate: obs.AggMean, Op: obs.OpAtLeast, Target: target, MinCount: 8}
	}
	p99 := obs.Objective{Name: "latency.p99", Metric: "server.latency_seconds",
		Aggregate: obs.AggP99, Op: obs.OpAtMost, Target: 0.05, MinCount: 8}
	const benchTarget = 10.0
	for _, tc := range []struct {
		name       string
		args       []string
		own        []obs.Objective // the caller's objectives (serve's -slo-p99)
		window     *obs.WindowOptions
		objectives []obs.Objective
		options    int
	}{
		{name: "nothing asked for"},
		{name: "window alone", args: []string{"-window", "20s", "-window-bucket", "1s"},
			window: &obs.WindowOptions{Bucket: time.Second, Buckets: 20}, options: 1},
		{name: "window at the default bucket", args: []string{"-window", "1m"},
			window: &obs.WindowOptions{Bucket: 5 * time.Second, Buckets: 12}, options: 1},
		{name: "window shorter than a bucket is one bucket", args: []string{"-window", "2s"},
			window: &obs.WindowOptions{Bucket: 5 * time.Second, Buckets: 1}, options: 1},
		{name: "zero bucket leaves both to the defaults", args: []string{"-window", "20s", "-window-bucket", "0"},
			window: &obs.WindowOptions{}, options: 1},
		{name: "privacy floor implies a window", args: []string{"-slo-privacy", "0.25"},
			window: &obs.WindowOptions{Bucket: 5 * time.Second}, objectives: []obs.Objective{floor(0.25)}, options: 2},
		{name: "negative floor is the benchmark's target", args: []string{"-slo-privacy", "-1", "-window-bucket", "1s"},
			window: &obs.WindowOptions{Bucket: time.Second}, objectives: []obs.Objective{floor(benchTarget)}, options: 2},
		{name: "caller's objective comes first", args: []string{"-slo-privacy", "2", "-slo-interval", "500ms"}, own: []obs.Objective{p99},
			window: &obs.WindowOptions{Bucket: 5 * time.Second}, objectives: []obs.Objective{p99, floor(2)}, options: 2},
		{name: "caller's objective alone implies a window", own: []obs.Objective{p99},
			window: &obs.WindowOptions{Bucket: 5 * time.Second}, objectives: []obs.Objective{p99}, options: 2},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		tf := registerTelemetry(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		window, objectives := tf.interpret(benchTarget, tc.own)
		if !reflect.DeepEqual(window, tc.window) {
			t.Errorf("%s: window %+v, want %+v", tc.name, window, tc.window)
		}
		if !reflect.DeepEqual(objectives, tc.objectives) {
			t.Errorf("%s: objectives %+v, want %+v", tc.name, objectives, tc.objectives)
		}
		if opts, objs := tf.options(benchTarget, tc.own); len(opts) != tc.options || !reflect.DeepEqual(objs, tc.objectives) {
			t.Errorf("%s: %d options with objectives %+v, want %d with %+v", tc.name, len(opts), objs, tc.options, tc.objectives)
		}
	}
}

// TestBackendBases: -backend-debug is one debug base URL per address of
// -backends; the gateway labels each by that address, so the order and the
// count are what the flag must get right.
func TestBackendBases(t *testing.T) {
	backends := []string{"10.0.0.1:7777", "10.0.0.2:7777"}
	for _, tc := range []struct {
		name, list string
		want       []string
		err        string
	}{
		{name: "unset"},
		{name: "base URLs", list: "http://10.0.0.1:8080,http://10.0.0.2:8080",
			want: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"}},
		{name: "the route the flag once named is trimmed", list: "http://10.0.0.1:8080/debug/metrics, http://10.0.0.2:8080/",
			want: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"}},
		{name: "fewer URLs than backends", list: "http://10.0.0.1:8080", err: "1 URLs for the 2 addresses"},
		{name: "more URLs than backends", list: "http://a,http://b,http://c", err: "3 URLs for the 2 addresses"},
	} {
		got, err := backendBases(tc.list, backends)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestGatewayBackendDebugNeedsDebugAddr: the fleet view is served on the
// gateway's own debug endpoint, so -backend-debug without -debug-addr used to
// be dropped without a word; it is refused, naming the flag, before anything
// is built or dialled — as is a list that does not match -backends.
func TestGatewayBackendDebugNeedsDebugAddr(t *testing.T) {
	err := cmdGateway([]string{"-backends", "127.0.0.1:1,127.0.0.1:2",
		"-backend-debug", "http://127.0.0.1:3,http://127.0.0.1:4"})
	if err == nil || !strings.Contains(err.Error(), "-debug-addr") {
		t.Fatalf("gateway -backend-debug without -debug-addr: %v", err)
	}
	err = cmdGateway([]string{"-backends", "127.0.0.1:1,127.0.0.1:2", "-debug-addr", "127.0.0.1:0",
		"-backend-debug", "http://127.0.0.1:3"})
	if err == nil || !strings.Contains(err.Error(), "-backend-debug lists 1 URLs") {
		t.Fatalf("gateway -backend-debug with one URL for two backends: %v", err)
	}
}

// TestInferAccuracyCountsClassified: asked for more samples than the test set
// holds, infer classifies the set and reports accuracy over what it
// classified, not over what it was asked for.
func TestInferAccuracyCountsClassified(t *testing.T) {
	dir := t.TempDir()
	sys, err := shredder.NewSystem("lenet", shredder.Config{Seed: 1, TrainN: 40, TestN: 4, Epochs: 1, WeightCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := sys.ServeCloud("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	inferErr := cmdInfer([]string{"-train", "40", "-test", "4", "-epochs", "1", "-cache", dir,
		"-addr", cloud.Addr, "-n", "500"})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if inferErr != nil {
		t.Fatal(inferErr)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if last := lines[len(lines)-1]; len(lines) != 5 || !strings.HasPrefix(last, "accuracy: ") || !strings.HasSuffix(last, "/4") {
		t.Fatalf("infer -n 500 over 4 test samples printed %d lines ending %q, want 4 samples and accuracy k/4", len(lines), last)
	}
}
