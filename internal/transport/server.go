package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"time"
)

// Handler serves one decoded request frame: decode payload, execute,
// and return the reply as a Marshaler (marshaled by the server into
// the response frame). A returned error becomes a FlagError response —
// a worker verdict the client surfaces as ServerError, with the status
// of a ServerError the error wraps — and so does a panic, which is
// logged with its stack and fails that call alone.
// Handlers run concurrently, one goroutine per in-flight call, exactly
// like net/rpc's service methods.
type Handler interface {
	ServeFrame(method uint16, payload []byte) (Marshaler, error)
}

// Verdict is an Interceptor's instruction for one call. The zero value
// passes the call through untouched.
type Verdict struct {
	// Delay stalls the connection's request loop before this call is
	// dispatched — a deterministic straggler that also delays anything
	// queued behind it on the same connection.
	Delay time.Duration
	// Drop serves the call but swallows its response; only a client-side
	// deadline rescues the caller.
	Drop bool
	// Sever closes the connection before the call runs; every in-flight
	// call on it dies with a transport error, exactly like a crash.
	Sever bool
}

// Interceptor inspects every request frame before dispatch — the seam
// where fault injection lives, seeing both the method id and the raw
// connection. A nil Interceptor passes everything.
type Interceptor interface {
	Intercept(method uint16) Verdict
}

// ServeOptions tunes ServeConn.
type ServeOptions struct {
	// Intercept, when non-nil, is consulted on every request frame.
	Intercept Interceptor
	// Observe, when non-nil, is called after each served call with the
	// exact on-wire request and response frame sizes (header included;
	// respBytes is the would-be size for dropped responses) and the
	// handler's wall time.
	Observe func(method uint16, dur time.Duration, reqBytes, respBytes int64)
	// MaxPayload caps accepted payload lengths (0 = DefaultMaxPayload).
	MaxPayload uint32
}

// ServeConn runs the framed server loop on conn until the peer hangs
// up, a protocol violation occurs, or an interceptor severs it. It
// waits for in-flight handlers before returning, and always closes
// conn. Responses may interleave arbitrarily with request order —
// sequence numbers, not ordering, pair them.
func ServeConn(conn net.Conn, h Handler, opts ServeOptions) {
	s := &connServer{conn: conn, h: h, opts: opts}
	s.serve()
}

type connServer struct {
	conn net.Conn
	h    Handler
	opts ServeOptions

	wmu sync.Mutex // serializes response writes
	wg  sync.WaitGroup
}

func (s *connServer) serve() {
	defer func() {
		s.wg.Wait()
		s.conn.Close()
	}()
	r := bufio.NewReaderSize(s.conn, 64<<10)
	var hdr [HeaderLen]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		h, err := DecodeHeader(hdr[:], s.opts.MaxPayload)
		if err != nil {
			// Can't resync a framed stream after a bad header; kill the
			// connection and let the client's retry layer take over.
			return
		}
		payload := make([]byte, h.Len)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		drop := false
		if s.opts.Intercept != nil {
			switch v := s.opts.Intercept.Intercept(h.Method); {
			case v.Sever:
				// Close before the call runs: pending calls on this conn
				// die with a transport error, like a worker crash.
				return
			case v.Delay > 0:
				// Stall the request loop: this call and anything queued
				// behind it on the connection is served late.
				time.Sleep(v.Delay)
				drop = v.Drop
			default:
				drop = v.Drop
			}
		}
		s.wg.Add(1)
		go s.dispatch(h, payload, drop)
	}
}

// serveFrame runs the handler, recovering a panic into the call's
// error: unrecovered it would end the process, and with it every other
// caller's connection and whatever state the handler keeps in memory.
func (s *connServer) serveFrame(h Header, payload []byte) (reply Marshaler, err error) {
	defer func() {
		if p := recover(); p != nil {
			reply, err = nil, fmt.Errorf("transport: handler panicked on method %d: %v", h.Method, p)
			log.Printf("%v\n%s", err, debug.Stack())
		}
	}()
	return s.h.ServeFrame(h.Method, payload)
}

// dispatch executes one call and writes (or, for dropped calls,
// discards) its response frame.
func (s *connServer) dispatch(h Header, payload []byte, drop bool) {
	defer s.wg.Done()
	start := time.Now()
	reply, err := s.serveFrame(h, payload)

	out := getScratch()
	buf := *out
	resp := Header{Method: h.Method, Seq: h.Seq}
	if err != nil {
		resp.Flags |= FlagError
		var se ServerError
		if errors.As(err, &se) {
			resp.Status = se.Status
		}
		buf = resp.AppendTo(buf[:0])
		buf = append(buf, err.Error()...)
	} else {
		buf = resp.AppendTo(buf[:0])
		if reply != nil {
			var merr error
			if buf, merr = reply.AppendTo(buf); merr != nil {
				// The handler produced an unmarshalable reply; answer with
				// the marshal error so the caller is not left hanging.
				buf = Header{Method: h.Method, Seq: h.Seq, Flags: FlagError}.AppendTo(buf[:0])
				buf = append(buf, merr.Error()...)
			}
		}
	}
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(buf)-HeaderLen))

	if !drop {
		s.wmu.Lock()
		_, _ = s.conn.Write(buf)
		s.wmu.Unlock()
	}
	if s.opts.Observe != nil {
		s.opts.Observe(h.Method, time.Since(start),
			int64(HeaderLen)+int64(h.Len), int64(len(buf)))
	}
	*out = buf
	putScratch(out)
}
