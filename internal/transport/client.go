package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Call is one in-flight (or finished) request. It mirrors rpc.Call so
// callers can keep the Go-then-select idiom their deadline and hedging
// logic is built on.
type Call struct {
	Method uint16
	Args   Marshaler
	Reply  Unmarshaler
	// Err is the call's outcome: nil, a ServerError (worker verdict),
	// or a transport failure.
	Err error
	// ReqBytes and RespBytes are the exact on-wire frame sizes
	// (header + payload). RespBytes is zero until a response lands.
	ReqBytes  int64
	RespBytes int64
	// Done receives the call itself when it completes.
	Done chan *Call

	seq uint64
}

func (c *Call) finish(err error) {
	c.Err = err
	select {
	case c.Done <- c:
	default:
		// Done is under-buffered; drop rather than block the read loop
		// (same contract as net/rpc).
	}
}

// Client owns one connection to a framed server and multiplexes
// concurrent calls over it by sequence number. It is safe for
// concurrent use. A read or write failure shuts the client down and
// fails every pending call with ErrShutdown — callers' retry policy
// decides what happens next.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes; guards wbuf
	wbf *[]byte

	mu       sync.Mutex
	seq      uint64
	pending  map[uint64]*Call
	shutdown bool

	readDone chan struct{}
}

// NewClient runs the framed protocol over conn, which it owns from
// here on. Wrap conn (e.g. with byte counters) before handing it over.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]*Call),
		wbf: getScratch(), readDone: make(chan struct{})}
	go c.readLoop()
	return c
}

// Go issues an asynchronous call. done may be nil (a fresh buffered
// channel is allocated) but, like net/rpc, must be buffered if
// supplied. The returned Call reports exact frame sizes once finished.
func (c *Client) Go(method uint16, args Marshaler, reply Unmarshaler, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	call := &Call{Method: method, Args: args, Reply: reply, Done: done}

	c.mu.Lock()
	if c.shutdown {
		c.mu.Unlock()
		call.finish(ErrShutdown)
		return call
	}
	c.seq++
	call.seq = c.seq
	c.pending[call.seq] = call
	c.mu.Unlock()

	// Marshal and write the frame under the write lock so the shared
	// buffer is reused across calls and frames never interleave.
	c.wmu.Lock()
	buf := *c.wbf
	buf = Header{Method: method, Seq: call.seq}.AppendTo(buf[:0])
	var err error
	if args != nil {
		if buf, err = args.AppendTo(buf); err != nil {
			err = marshalError{err}
		}
	}
	if err == nil {
		binary.LittleEndian.PutUint32(buf[16:20], uint32(len(buf)-HeaderLen))
		call.ReqBytes = int64(len(buf))
		_, err = c.conn.Write(buf)
	}
	*c.wbf = buf
	c.wmu.Unlock()

	if err != nil {
		if !c.forget(call.seq) {
			// The read loop saw the connection die first and already
			// finished this call along with the other pending ones.
			return call
		}
		if _, ok := err.(marshalError); ok {
			call.finish(err) // caller bug, not a transport casualty
		} else {
			c.shutdownClient()
			call.finish(ErrShutdown)
		}
	}
	return call
}

// marshalError wraps an AppendTo failure so Go can tell a bad argument
// from a dead connection.
type marshalError struct{ err error }

func (e marshalError) Error() string { return "transport: marshal: " + e.err.Error() }
func (e marshalError) Unwrap() error { return e.err }

// Call issues method and waits for the response, ctx's cancellation,
// or the connection's death, whichever is first. It returns the exact
// on-wire request and response frame sizes; on a context error the
// pending entry is forgotten and a late response is discarded.
func (c *Client) Call(ctx context.Context, method uint16, args Marshaler, reply Unmarshaler) (reqBytes, respBytes int64, err error) {
	call := c.Go(method, args, reply, make(chan *Call, 1))
	select {
	case <-ctx.Done():
		c.forget(call.seq)
		return call.ReqBytes, 0, ctx.Err()
	case <-call.Done:
		return call.ReqBytes, call.RespBytes, call.Err
	}
}

// forget abandons one pending call (deadline passed, caller moved on)
// and reports whether it was still pending. A response that arrives
// later finds no owner and is discarded.
func (c *Client) forget(seq uint64) bool {
	c.mu.Lock()
	_, pending := c.pending[seq]
	delete(c.pending, seq)
	c.mu.Unlock()
	return pending
}

// Close tears the connection down and fails every pending call.
func (c *Client) Close() error {
	err := c.shutdownClient()
	<-c.readDone
	return err
}

// shutdownClient closes the connection once and fails every pending
// call with ErrShutdown.
func (c *Client) shutdownClient() error {
	c.mu.Lock()
	if c.shutdown {
		c.mu.Unlock()
		return nil
	}
	c.shutdown = true
	pending := c.pending
	c.pending = make(map[uint64]*Call)
	c.mu.Unlock()
	err := c.conn.Close()
	for _, call := range pending {
		call.finish(ErrShutdown)
	}
	return err
}

// readLoop demuxes response frames to their pending calls until the
// connection dies.
func (c *Client) readLoop() {
	defer close(c.readDone)
	r := bufio.NewReaderSize(c.conn, 64<<10)
	var hdr [HeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			c.shutdownClient()
			return
		}
		h, err := DecodeHeader(hdr[:], 0)
		if err != nil {
			c.shutdownClient()
			return
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		payload = payload[:h.Len]
		if _, err := io.ReadFull(r, payload); err != nil {
			c.shutdownClient()
			return
		}
		c.mu.Lock()
		call := c.pending[h.Seq]
		delete(c.pending, h.Seq)
		c.mu.Unlock()
		if call == nil {
			continue // abandoned by deadline; the bytes still counted
		}
		call.RespBytes = int64(HeaderLen) + int64(h.Len)
		switch {
		case h.Flags&FlagError != 0:
			call.finish(ServerError{Status: h.Status, Msg: string(payload)})
		case call.Reply == nil:
			call.finish(nil)
		default:
			if derr := call.Reply.DecodeFrom(payload); derr != nil {
				call.finish(fmt.Errorf("transport: decode method %d reply: %w", h.Method, derr))
			} else {
				call.finish(nil)
			}
		}
	}
}
