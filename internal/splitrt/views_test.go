package splitrt

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/audit"
	"shredder/internal/core"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// tapAct is what a tap does with one request frame.
type tapAct int

const (
	tapForward tapAct = iota // pass it to the backend
	tapStall                 // keep it: the backend never sees it, the connection stays up
	tapHangUp                // close the connection; new ones are still accepted
	tapDown                  // close the connection and stop accepting: the backend is gone
)

// tap fronts a backend with a listener that reads the client's frames,
// records every request frame it is sent, and does what act says with it —
// the n-th request frame, counted from 0 over every connection.
type tap struct {
	ln     net.Listener
	target string
	act    func(n int) tapAct

	mu   sync.Mutex
	seen []request
}

func newTap(t *testing.T, target string, act func(n int) tapAct) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln, target: target, act: act}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go tp.serve(t, conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return tp
}

func (tp *tap) addr() string { return tp.ln.Addr().String() }

// serve relays one connection, frame by frame toward the backend.
func (tp *tap) serve(t *testing.T, client net.Conn) {
	defer client.Close()
	up, err := net.Dial("tcp", tp.target)
	if err != nil {
		return
	}
	defer up.Close()
	go func() { io.Copy(client, up); client.Close() }()
	for {
		frame := make([]byte, 4)
		if _, err := io.ReadFull(client, frame); err != nil {
			return
		}
		frame = append(frame, make([]byte, binary.LittleEndian.Uint32(frame))...)
		if _, err := io.ReadFull(client, frame[4:]); err != nil {
			return
		}
		act := tapForward
		if frame[4] == kindRequest {
			var req request
			if err := decodeRequest(frame[4:], &req, new(wire.HuffmanDecoder)); err != nil {
				t.Errorf("tap: %v", err)
				return
			}
			tp.mu.Lock()
			act = tp.act(len(tp.seen))
			tp.seen = append(tp.seen, req)
			tp.mu.Unlock()
		}
		switch act {
		case tapStall:
			continue
		case tapDown:
			tp.ln.Close()
			return
		case tapHangUp:
			return
		}
		if _, err := up.Write(frame); err != nil {
			return
		}
	}
}

// take returns the request frames recorded since the last take.
func (tp *tap) take() []request {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	seen := tp.seen
	tp.seen = nil
	return seen
}

// viewsCollection is a stored collection of 64 distinct members: a call
// that drew its noise again would send other bytes, but for one chance in 64.
func viewsCollection() *core.Collection {
	rng := tensor.NewRNG(61)
	col := &core.Collection{Shape: []int{1, 2, 2}}
	for i := 0; i < 64; i++ {
		col.Members = append(col.Members, rng.FillNormal(tensor.New(1, 2, 2), 0, 5))
		col.InVivo = append(col.InVivo, 0)
	}
	return col
}

// checkOneView holds every attempt of one call to one view of its input: the
// same a′ bits, the same activation digest an audited backend would record,
// the same audit note — and a′ is not the clean activation, so the noise the
// attempts agree on was really drawn.
func checkOneView(t *testing.T, split *core.Split, x *tensor.Tensor, attempts []request) {
	t.Helper()
	if len(attempts) < 2 {
		t.Fatalf("%d attempt(s) reached the backends, want a second one", len(attempts))
	}
	first := attempts[0]
	if first.Activation == nil || first.Audit == nil {
		t.Fatalf("attempt 0 carries activation %v, audit note %v", first.Activation, first.Audit)
	}
	if sameBits(first.Activation, split.Local(x)) {
		t.Fatal("attempt 0 carries the clean activation: no noise was drawn")
	}
	want := digestRequest(&audit.Digester{}, &first)
	for i, req := range attempts[1:] {
		if req.Activation == nil || !sameBits(req.Activation, first.Activation) {
			t.Fatalf("attempt %d sends other a′ bytes than attempt 0", i+1)
		}
		if got := digestRequest(&audit.Digester{}, &req); got != want {
			t.Fatalf("attempt %d has activation digest %x, attempt 0 %x", i+1, got[:8], want[:8])
		}
		if req.Audit == nil || *req.Audit != *first.Audit {
			t.Fatalf("attempt %d carries audit note %+v, attempt 0 %+v", i+1, req.Audit, first.Audit)
		}
	}
}

// TestRetriesSendOneView: a call the serving stack makes more than once —
// rerouted by a Pool after its backend hung up, hedged by a Pool against a
// stalled backend, resent by an EdgeClient after a reconnect — sends the one
// a′ its edge step drew on every attempt, so the fleet never hands the cloud
// a second view of an input to average the noise out of.
func TestRetriesSendOneView(t *testing.T) {
	x, _ := poolInput(3)

	t.Run("pool reroute after a hang-up", func(t *testing.T) {
		split, _, addrs := fleetRig(t, 2)
		gone := newTap(t, addrs[0], func(int) tapAct { return tapDown })
		live := newTap(t, addrs[1], func(int) tapAct { return tapForward })
		pool, err := NewPool(split, "cut", viewsCollection(), 41, []string{gone.addr(), live.addr()},
			WithHealthInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		if _, err := pool.Infer(x); err != nil { // round robin: the first call goes to gone
			t.Fatal(err)
		}
		if st := pool.Stats(); st.Reroutes != 1 {
			t.Fatalf("%d reroutes, want 1", st.Reroutes)
		}
		checkOneView(t, split, x, append(gone.take(), live.take()...))
	})

	t.Run("pool hedge against a stalled backend", func(t *testing.T) {
		split, _, addrs := fleetRig(t, 2)
		var stall atomic.Bool // set: the next request frame either tap sees stalls
		act := func(int) tapAct {
			if stall.CompareAndSwap(true, false) {
				return tapStall
			}
			return tapForward
		}
		a, b := newTap(t, addrs[0], act), newTap(t, addrs[1], act)
		pool, err := NewPool(split, "cut", viewsCollection(), 43, []string{a.addr(), b.addr()},
			WithHedging(0.5, 5*time.Millisecond), WithHealthInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		// Warm both latency histograms past the hedging threshold.
		for i := 0; i < 40; i++ {
			if _, err := pool.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		a.take()
		b.take()
		stall.Store(true)
		before := pool.Stats()
		if _, err := pool.Infer(x); err != nil {
			t.Fatal(err)
		}
		if st := pool.Stats(); st.Hedges != before.Hedges+1 || st.HedgeWins != before.HedgeWins+1 {
			t.Fatalf("hedges %d → %d, wins %d → %d: want one hedge, and it won", before.Hedges, st.Hedges, before.HedgeWins, st.HedgeWins)
		}
		checkOneView(t, split, x, append(a.take(), b.take()...))
	})

	t.Run("edge client reconnect", func(t *testing.T) {
		split, _, addrs := fleetRig(t, 1)
		flaky := newTap(t, addrs[0], func(n int) tapAct {
			if n == 0 {
				return tapHangUp
			}
			return tapForward
		})
		client, err := Dial(flaky.addr(), split, "cut", viewsCollection(), 47, WithReconnect(3, time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Infer(x); err != nil {
			t.Fatal(err)
		}
		if st := client.Stats(); st.Redials != 1 {
			t.Fatalf("%d redials, want 1", st.Redials)
		}
		checkOneView(t, split, x, flaky.take())
	})
}
