package splitrt

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"shredder/internal/obs"
)

// frontEnd is what a CloudServer and a Gateway have in common for a caller.
type frontEnd interface {
	Serve(addr string) (string, error)
	Close() error
	DebugAddr() string
}

// TestFrontEndLifecycle drives a server and a gateway through the same
// lifecycle cases: both embed one endpoint, so each case holds for both or
// for neither.
func TestFrontEndLifecycle(t *testing.T) {
	split, _, addrs := fleetRig(t, 1)
	pool, err := NewPool(split, "cut", nil, 3, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	roles := map[string]func(opts ...FrontOption) frontEnd{
		"server": func(opts ...FrontOption) frontEnd {
			sopts := make([]ServerOption, len(opts))
			for i, o := range opts {
				sopts[i] = o
			}
			return NewCloudServer(split, "cut", sopts...)
		},
		"gateway": func(opts ...FrontOption) frontEnd {
			gopts := make([]GatewayOption, len(opts))
			for i, o := range opts {
				gopts[i] = o
			}
			return NewGateway(pool, gopts...)
		},
	}
	infer := func(t *testing.T, addr string) error {
		t.Helper()
		c, err := Dial(addr, split, "cut", nil, 5)
		if err != nil {
			return err
		}
		defer c.Close()
		x, _ := poolInput(0)
		_, err = c.Infer(x)
		return err
	}
	cases := map[string]func(t *testing.T, build func(...FrontOption) frontEnd){
		"serve then close": func(t *testing.T, build func(...FrontOption) frontEnd) {
			fe := build(WithDebugServer("127.0.0.1:0"))
			addr, err := fe.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := infer(t, addr); err != nil {
				t.Fatal(err)
			}
			debug := fe.DebugAddr()
			if resp, err := http.Get("http://" + debug + "/debug/metrics"); err != nil {
				t.Fatal(err)
			} else {
				resp.Body.Close()
			}
			if err := fe.Close(); err != nil {
				t.Fatal(err)
			}
			if fe.DebugAddr() != "" {
				t.Error("DebugAddr still set after Close")
			}
			for _, a := range []string{addr, debug} {
				if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
					c.Close()
					t.Errorf("%s still accepts connections after Close", a)
				}
			}
		},
		"serve after close is refused": func(t *testing.T, build func(...FrontOption) frontEnd) {
			fe := build()
			fe.Close()
			if addr, err := fe.Serve("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("Serve after Close = %q, %v; want a closed error", addr, err)
			}
		},
		"close twice": func(t *testing.T, build func(...FrontOption) frontEnd) {
			fe := build()
			if _, err := fe.Serve("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			if err := fe.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fe.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		},
		"second serve is refused and the first keeps serving": func(t *testing.T, build func(...FrontOption) frontEnd) {
			fe := build()
			first, err := fe.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer fe.Close()
			if second, err := fe.Serve("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), first) {
				t.Fatalf("second Serve = %q, %v; want an error naming %s", second, err, first)
			}
			if err := infer(t, first); err != nil {
				t.Fatalf("first listener after the refused Serve: %v", err)
			}
		},
		"debug listen failure releases the listener": func(t *testing.T, build func(...FrontOption) frontEnd) {
			taken, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer taken.Close()
			// A fixed protocol port, free right now: if Serve leaked its
			// listener on the way out, binding it again fails.
			probe, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := probe.Addr().String()
			probe.Close()
			fe := build(WithDebugServer(taken.Addr().String()))
			defer fe.Close()
			if _, err := fe.Serve(addr); err == nil || !strings.Contains(err.Error(), "debug listen") {
				t.Fatalf("Serve with the debug port taken: %v", err)
			}
			if fe.DebugAddr() != "" {
				t.Error("DebugAddr set after a failed Serve")
			}
			again, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("protocol listener not released: %v", err)
			}
			again.Close()
		},
		"invalid objective surfaces from serve": func(t *testing.T, build func(...FrontOption) frontEnd) {
			fe := build(WithSLO(0, obs.Objective{Name: "bad", Metric: "m", Aggregate: "p42", Op: obs.OpAtMost}))
			defer fe.Close()
			if _, err := fe.Serve("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "p42") {
				t.Fatalf("Serve err = %v, want aggregate validation error", err)
			}
		},
	}
	for role, build := range roles {
		for name, run := range cases {
			t.Run(role+"/"+name, func(t *testing.T) { run(t, build) })
		}
	}
}

// TestPoolClientOptionsAppend: like every other list option,
// WithPoolClientOptions given twice keeps both lists.
func TestPoolClientOptionsAppend(t *testing.T) {
	split, _, addrs := fleetRig(t, 1)
	reg := obs.NewRegistry()
	pool, err := NewPool(split, "cut", nil, 3, addrs,
		WithPoolClientOptions(WithMetrics(reg)),
		WithPoolClientOptions(WithTimeout(time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x, _ := poolInput(0)
	if _, err := pool.Infer(x); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("client.requests").Value(); n != 1 {
		t.Fatalf("the first option list was replaced: client.requests = %d in its registry, want 1", n)
	}
}

// TestGatewayBackendCountMismatch: a WithBackends list that is not one base
// URL per pool backend surfaces from Serve.
func TestGatewayBackendCountMismatch(t *testing.T) {
	split, _, addrs := fleetRig(t, 2)
	pool, err := NewPool(split, "cut", nil, 3, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	gw := NewGateway(pool, WithDebugServer("127.0.0.1:0"), WithBackends("http://127.0.0.1:1"))
	defer gw.Close()
	if _, err := gw.Serve("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "1 backend debug URLs for 2 backends") {
		t.Fatalf("Serve err = %v, want a count mismatch", err)
	}
}

// TestWithMetricsIsOneOption: the same option places a client's, a pool's and
// a gateway's metrics, each in the registry it was given.
func TestWithMetricsIsOneOption(t *testing.T) {
	split, _, addrs := fleetRig(t, 1)
	poolReg, gwReg, clientReg := obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()
	pool, err := NewPool(split, "cut", nil, 3, addrs, WithMetrics(poolReg))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	gw := NewGateway(pool, WithMetrics(gwReg))
	addr, err := gw.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	client, err := Dial(addr, split, "cut", nil, 5, WithMetrics(clientReg))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	x, _ := poolInput(0)
	if _, err := client.Infer(x); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*obs.Registry{"client.requests": clientReg, "pool.requests": poolReg, "gateway.requests": gwReg} {
		if n := reg.Counter(name).Value(); n != 1 {
			t.Errorf("%s = %d in the registry its component was given, want 1", name, n)
		}
	}
	if n := poolReg.Counter("gateway.requests").Value(); n != 0 {
		t.Errorf("gateway.requests = %d in the pool's registry: WithMetrics on the gateway was ignored", n)
	}
}
