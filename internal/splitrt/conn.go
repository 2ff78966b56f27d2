package splitrt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"shredder/internal/obs"
	"shredder/internal/wire"
)

// readChunk is how far a connection's read buffer may grow ahead of the
// bytes that have actually arrived: a peer that announces a large frame and
// then stalls has cost the reader one chunk, not the announced length. Every
// frame of the benchmark's workloads fits in one.
const readChunk = 256 << 10

// frameConn is one end of a framed connection: the socket, the read and
// write buffers that live as long as it does, the two deadlines a server
// arms around every frame, and the mutex that keeps concurrently written
// frames whole. Reads are for one goroutine. A client leaves the timeouts at
// zero and sets per-call deadlines itself, and passes its byte counters; a
// server leaves the counters nil.
type frameConn struct {
	conn           net.Conn
	idleTimeout    time.Duration // read deadline armed before each frame (0 = none)
	writeTimeout   time.Duration // write deadline armed before each flush (0 = none)
	sent, received *obs.Counter
	// poke (client connections only) fails the transport call the connection
	// is blocked in by moving its deadline into the past. Built once per
	// connection: arming it for a request allocates nothing.
	poke func()

	prefix [4]byte
	rbuf   []byte
	dec    wire.HuffmanDecoder // decodes a coded narrow response (client connections)

	wmu  sync.Mutex // serializes sendResponse; fill-then-flush callers are single-writer
	wbuf []byte
}

func (c *frameConn) Close() error { return c.conn.Close() }

func (c *frameConn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// readBody reads the n body bytes that follow a length prefix into the
// connection's read buffer and returns them; they are valid until the next
// read. A buffer that is too small grows by at most readChunk beyond what
// has arrived, and by a sixteenth of the frame more than the frame needs:
// coded payloads vary in length, and a buffer sized to each new longest
// frame would grow again at the next.
func (c *frameConn) readBody(n int) ([]byte, error) {
	buf := c.rbuf[:0]
	for len(buf) < n {
		step := n - len(buf)
		if cap(buf) < n {
			step = min(step, readChunk)
			if cap(buf)-len(buf) < step {
				grown := make([]byte, len(buf), len(buf)+min(step+n/16, readChunk))
				copy(grown, buf)
				buf = grown
			}
		}
		m, err := io.ReadFull(c.conn, buf[len(buf):len(buf)+step])
		c.received.Add(int64(m))
		buf = buf[:len(buf)+m]
		c.rbuf = buf
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// readFrame arms the idle deadline, blocks for the next frame's length
// prefix, refusing anything that cannot be a frame, and reads the body it
// announces.
func (c *frameConn) readFrame(max int) ([]byte, error) {
	if c.idleTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.idleTimeout)); err != nil {
			return nil, err
		}
	}
	n, err := io.ReadFull(c.conn, c.prefix[:])
	c.received.Add(int64(n))
	if err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(c.prefix[:])
	if size < 3 || size > uint32(max) {
		return nil, badFrame("length prefix %d outside [3, %d]", size, max)
	}
	return c.readBody(int(size))
}

// flush arms the write deadline and puts the frame in wbuf on the wire in
// one Write.
func (c *frameConn) flush() error {
	if len(c.wbuf)-4 > maxFrameBody {
		return fmt.Errorf("splitrt: frame body of %d bytes exceeds the %d-byte limit", len(c.wbuf)-4, maxFrameBody)
	}
	if c.writeTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	n, err := c.conn.Write(c.wbuf)
	c.sent.Add(int64(n))
	return err
}

// sendResponse writes one response frame; safe for concurrent use.
func (c *frameConn) sendResponse(resp *response) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = resp.appendFrame(c.wbuf)
	return c.flush()
}

// serveFrames speaks the accepting side of the protocol on one connection,
// for the CloudServer and the Gateway alike: the hello exchange against the
// partition the host serves, then the request loop. Every frame is decoded
// into a request state from the host's free list, which goes back there once
// the response is written (reqState.answer). Pipelined, every request is
// answered on its own goroutine — several can be in flight on one connection
// and responses may overtake each other, matched by ID — and when the reader
// exits for any reason but an idle timeout, what is still in flight is
// abandoned: ctx is cancelled and a backend call a request is blocked in is
// interrupted. In lockstep a request is over once answered, so the next one finds
// its state on top of the list. It returns when the peer hangs up, idles out,
// sends something that is not a frame, or cannot be written to; the caller
// closes the connection.
//
// A request frame that is whole but contradicts itself (dimensions against
// payload length, say) does not end the connection — the length prefix has
// kept the stream in step — and is handed on marked malformed, for handle to
// refuse as a bad request like any other.
func serveFrames(c *frameConn, host string, serves hello, pipelined bool, states *stateList) {
	body, err := c.readFrame(maxHandshakeBody)
	if err != nil {
		return
	}
	h, err := decodeHello(body)
	if err != nil {
		return
	}
	ack := helloAck{OK: true}
	switch {
	case h.Version != protoVersion:
		ack = helloAck{Err: fmt.Sprintf("%s speaks protocol version %d, client speaks %d", host, protoVersion, h.Version)}
	case h.Network != serves.Network || h.CutLayer != serves.CutLayer:
		ack = helloAck{Err: fmt.Sprintf("%s serves %s cut at %s, client wants %s cut at %s",
			host, serves.Network, serves.CutLayer, h.Network, h.CutLayer)}
	}
	c.wbuf = ack.appendFrame(c.wbuf)
	if err := c.flush(); err != nil || !ack.OK {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flying inflight
	defer flying.wg.Wait()
	for {
		body, err := c.readFrame(maxFrameBody)
		if err != nil || body[0] != kindRequest {
			// A peer that idled out gets the answers it is still owed before
			// the connection goes. One that hung up, broke the framing, or whose
			// host is closing has nobody left to answer: what is in flight is
			// abandoned — the context first, then every armed watch.
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				cancel()
				flying.abandon()
			}
			return
		}
		st := states.take()
		st.conn, st.ctx = c, ctx
		st.decode(body)
		if pipelined {
			st.flying = &flying
			flying.add(st)
			go st.run()
		} else if !st.answer() {
			return
		}
	}
}

// inflight is what one pipelined connection has handed to answering
// goroutines: a count to wait for, and the states whose handle has not
// returned yet, so that the end of the connection can reach a backend call one
// of them is blocked in. It grows to the most requests the connection ever had
// in flight.
type inflight struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	states []*reqState
}

func (f *inflight) add(st *reqState) {
	f.wg.Add(1)
	f.mu.Lock()
	f.states = append(f.states, st)
	f.mu.Unlock()
}

// remove takes st out of reach of abandon: its handle has returned.
func (f *inflight) remove(st *reqState) {
	f.mu.Lock()
	if i := slices.Index(f.states, st); i >= 0 {
		last := len(f.states) - 1
		f.states[i], f.states[last] = f.states[last], nil
		f.states = f.states[:last]
	}
	f.mu.Unlock()
}

// abandon fires the watch of every state still being handled. The caller
// has cancelled the connection's context.
func (f *inflight) abandon() {
	f.mu.Lock()
	for _, st := range f.states {
		st.watch.fire()
	}
	f.mu.Unlock()
}
