package splitrt

import (
	"context"
	"sync"

	"shredder/internal/audit"
	"shredder/internal/sched"
	"shredder/internal/tensor"
	"shredder/internal/wire"
)

// reqState is everything the accepting side holds for one request, from the
// frame being read to the response being written: the decoded request and the
// storage its pointers lead to, the activation at the plan's dtype, the
// logits, the batcher's timings, the digest state and the response. A
// CloudServer or Gateway keeps the states it is not using on a free list
// (stateList) and serveFrames takes one per frame, so a warm request builds
// none of this. DESIGN §5l has the table of who may touch what, when.
//
// The one way this can be wrong is a state handed to the next request while
// something still reads or writes it. handle therefore sets forfeit whenever
// it answers without knowing that every reader has finished — a forward pass
// abandoned to a handler timeout, a batch flight left behind on ctx.Done(), a
// pool whose losing hedge may still be sending the payload — and a forfeited
// state is left to the garbage collector instead of the free list.
type reqState struct {
	req  request
	resp response

	// Storage behind req.Quant and req.Audit: decodeRequest fills what the
	// request already points at.
	quant quantPayload
	dims  [wire.MaxRank]int
	note  auditNote
	dec   wire.HuffmanDecoder // decodes a coded narrow activation, and a server's quant.Coded into quant.Packed

	f64    *tensor.Tensor   // the activation: a dense payload as decoded, or a packed one dequantized for a float64 plan
	f32    *tensor.Tensor32 // a packed payload dequantized for a float32 plan
	logits *tensor.Tensor   // where the forward pass (server) or the backend's response (gateway) puts the logits
	info   sched.SubmitInfo
	digest audit.Digester

	forfeit bool

	// watch is how the end of the accepting connection reaches a backend call
	// this request is blocked in (a gateway lends it to the pool's client as
	// request.watch): part of the state, so relaying registers nothing per call.
	watch relayWatch

	// What answering needs beside the request. run answers on a goroutine of
	// its own, as a pipelined connection asks; it is built once per state, so
	// starting that goroutine allocates nothing. flying is that connection's
	// set of requests being answered, nil in lockstep.
	list   *stateList
	conn   *frameConn
	ctx    context.Context
	flying *inflight
	run    func()
}

// relayWatch stands in for context.AfterFunc(ctx, conn.poke) on a call whose
// context is an accepting connection's: roundTrip arms it with the backend
// connection it is about to block on, and the accepting connection, when it
// ends, cancels that context and then fires the watch of every request it
// still has in flight (inflight.abandon) — a poke for each one that is armed.
// A watch armed after that cancellation is not fired: whoever arms one checks
// the context next.
type relayWatch struct {
	mu    sync.Mutex
	conn  *frameConn // the backend connection the request is blocked on; nil = not armed
	poked bool       // conn was poked while armed: it serves no later request
}

func (w *relayWatch) arm(c *frameConn) {
	w.mu.Lock()
	w.conn = c
	w.mu.Unlock()
}

// disarm ends the arming and reports, as the stop of a context.AfterFunc
// does, whether the connection was left alone.
func (w *relayWatch) disarm() (clean bool) {
	w.mu.Lock()
	clean = !w.poked
	w.conn, w.poked = nil, false
	w.mu.Unlock()
	return clean
}

func (w *relayWatch) fire() {
	w.mu.Lock()
	if w.conn != nil && !w.poked {
		w.conn.poke()
		w.poked = true
	}
	w.mu.Unlock()
}

// decode reads a request frame into the state, over what the last request
// left there. A frame that is whole but contradicts itself marks the request
// malformed, for handle to refuse.
func (st *reqState) decode(body []byte) {
	st.forfeit = false
	st.quant.Shape = st.dims[:0]
	st.req = request{Activation: st.f64, Quant: &st.quant, Audit: &st.note}
	if err := decodeRequest(body, &st.req, &st.dec); err != nil {
		st.req.Activation, st.req.Quant, st.req.malformed = nil, nil, err.Error()
	}
	if st.req.Activation != nil {
		st.f64 = st.req.Activation
	}
}

// answer runs handle and writes the response; the state goes back on its
// list unless handle forfeited it. It reports whether the peer could be
// written to.
func (st *reqState) answer() bool {
	st.list.handle(st.ctx, st)
	if st.flying != nil {
		st.flying.remove(st)
	}
	ok := st.conn.sendResponse(&st.resp) == nil
	st.conn, st.ctx, st.flying = nil, nil, nil // an idle state keeps no connection alive
	if !st.forfeit {
		st.list.give(st)
	}
	return ok
}

// freeList is a stack of idle values behind a mutex: a free list rather than
// a sync.Pool, so that a value in steady use is never dropped by a garbage
// collection and the allocations of a request do not depend on which P it ran
// on. It grows to the largest number of values ever out at once.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// take returns the value given back last, or nil when none is idle.
func (l *freeList[T]) take() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return nil
	}
	v := l.idle[n-1]
	l.idle = l.idle[:n-1]
	return v
}

func (l *freeList[T]) give(v *T) {
	l.mu.Lock()
	l.idle = append(l.idle, v)
	l.mu.Unlock()
}

// stateList is a host's request states not in use, and the handle that
// answers them.
type stateList struct {
	// handle answers the request in st into st.resp. Set once, by the host.
	handle func(ctx context.Context, st *reqState)
	freeList[reqState]
}

// take returns an idle state, or a new one.
func (l *stateList) take() *reqState {
	if st := l.freeList.take(); st != nil {
		return st
	}
	st := &reqState{list: l}
	st.run = func() {
		conn, flying := st.conn, st.flying // answer may hand st to the next request
		defer flying.wg.Done()
		if !st.answer() {
			// The peer is unreachable; unblock the reader so the connection
			// tears down instead of lingering until the idle deadline.
			conn.Close()
		}
	}
	return st
}
