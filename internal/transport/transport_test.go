package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoPayload is a Marshaler/Unmarshaler over raw bytes.
type echoPayload struct{ b []byte }

func (p *echoPayload) AppendTo(dst []byte) ([]byte, error) { return append(dst, p.b...), nil }
func (p *echoPayload) DecodeFrom(data []byte) error {
	p.b = append(p.b[:0], data...)
	return nil
}

// badMarshal always fails to marshal.
type badMarshal struct{}

func (badMarshal) AppendTo([]byte) ([]byte, error) { return nil, errors.New("boom") }

// testHandler echoes payloads back; method 99 answers with an error,
// method 98 with a wrapped shard-moved verdict, method 50 sleeps 200ms first (the deadline-mid-frame case's slow
// call), method 60 replies with an unmarshalable body, method 70
// panics.
type testHandler struct{ served sync.Map }

func (h *testHandler) ServeFrame(method uint16, payload []byte) (Marshaler, error) {
	if n, ok := h.served.Load(method); ok {
		h.served.Store(method, n.(int)+1)
	} else {
		h.served.Store(method, 1)
	}
	switch method {
	case 99:
		return nil, fmt.Errorf("verdict: method 99 rejected")
	case 98:
		return nil, fmt.Errorf("wrapped: %w", ServerError{Status: StatusShardMoved, Msg: "shard 3 not resident"})
	case 50:
		time.Sleep(200 * time.Millisecond)
	case 60:
		return badMarshal{}, nil
	case 70:
		panic("ragged row")
	}
	return &echoPayload{b: append([]byte(nil), payload...)}, nil
}

// startServer runs a framed server on an ephemeral port and returns
// its address plus a shutdown func.
func startServer(t *testing.T, h Handler, opts ServeOptions) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ServeConn(conn, h, opts)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(conn)
}

// TestCallRoundTrip sends a payload and gets the echo plus exact frame
// sizes back.
func TestCallRoundTrip(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	msg := []byte("hello frames")
	var reply echoPayload
	req, resp, err := cl.Call(context.Background(), 7, &echoPayload{b: msg}, &reply)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.b) != string(msg) {
		t.Fatalf("echo = %q, want %q", reply.b, msg)
	}
	if want := int64(HeaderLen + len(msg)); req != want || resp != want {
		t.Fatalf("frame sizes req=%d resp=%d, want %d (exact header+payload)", req, resp, want)
	}
}

// TestServerError surfaces worker verdicts as ServerError, distinct
// from transport failures.
func TestServerError(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	_, _, err := cl.Call(context.Background(), 99, &echoPayload{b: []byte("x")}, &echoPayload{})
	var se ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "method 99 rejected") {
		t.Fatalf("err = %v, want ServerError with verdict", err)
	}
	// The connection survives a verdict: the next call works.
	var reply echoPayload
	if _, _, err := cl.Call(context.Background(), 1, &echoPayload{b: []byte("y")}, &reply); err != nil {
		t.Fatalf("call after verdict: %v", err)
	}
}

// TestServerErrorStatus: a handler's verdict code crosses the wire in
// header byte 7, through any wrapping, and costs no frame bytes; a plain
// error answers StatusPlain.
func TestServerErrorStatus(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	for _, tc := range []struct {
		method uint16
		status Status
		msg    string
	}{
		{98, StatusShardMoved, "wrapped: shard 3 not resident"},
		{99, StatusPlain, "verdict: method 99 rejected"},
	} {
		_, resp, err := cl.Call(context.Background(), tc.method, &echoPayload{b: []byte("x")}, &echoPayload{})
		var se ServerError
		if !errors.As(err, &se) || se.Status != tc.status || se.Msg != tc.msg {
			t.Errorf("method %d: err = %#v, want status %d with %q", tc.method, err, tc.status, tc.msg)
		}
		if want := int64(HeaderLen + len(tc.msg)); resp != want {
			t.Errorf("method %d: response frame %d bytes, want %d", tc.method, resp, want)
		}
	}
}

// TestDecodeHeaderStatus: byte 7 is a known code on an error frame and
// zero on every other frame; anything else is a protocol violation.
func TestDecodeHeaderStatus(t *testing.T) {
	for _, tc := range []struct {
		flags  Flags
		status byte
		ok     bool
	}{
		{0, 0, true},
		{FlagError, byte(StatusPlain), true},
		{FlagError, byte(StatusRuleMissing), true},
		{FlagError, byte(StatusShardMoved), true},
		{FlagError, byte(numStatus), false},
		{FlagError, 0x80, false},
		{0, byte(StatusShardMoved), false},
		{0, 0x80, false},
	} {
		b := Header{Method: 1, Flags: tc.flags, Seq: 2}.AppendTo(nil)
		b[7] = tc.status
		h, err := DecodeHeader(b, 0)
		if (err == nil) != tc.ok {
			t.Errorf("flags %#x status %#x: err = %v, want ok=%v", tc.flags, tc.status, err, tc.ok)
		}
		if err == nil && h.Status != Status(tc.status) {
			t.Errorf("flags %#x status %#x decoded as %d", tc.flags, tc.status, h.Status)
		}
	}
}

// TestConcurrentCallsOneConn hammers one connection from many
// goroutines and checks every reply routes back to its own call.
func TestConcurrentCallsOneConn(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	const callers, per = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := fmt.Sprintf("caller=%d call=%d", g, i)
				var reply echoPayload
				if _, _, err := cl.Call(context.Background(), uint16(g+1), &echoPayload{b: []byte(msg)}, &reply); err != nil {
					errs <- fmt.Errorf("%s: %v", msg, err)
					return
				}
				if string(reply.b) != msg {
					errs <- fmt.Errorf("cross-wired reply: got %q want %q", reply.b, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMidCallSever severs the connection while calls are in flight:
// every pending call must fail with ErrShutdown promptly, none may
// hang.
func TestMidCallSever(t *testing.T) {
	sever := &funcInterceptor{f: func(m uint16) Verdict {
		if m == 50 {
			return Verdict{Sever: true}
		}
		return Verdict{}
	}}
	addr, stop := startServer(t, &testHandler{}, ServeOptions{Intercept: sever})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	// Park some calls behind a slow response, then trip the sever.
	var wg sync.WaitGroup
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cl.Call(context.Background(), 50, &echoPayload{b: []byte("doomed")}, &echoPayload{})
			results <- err
		}()
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err == nil {
			t.Error("call survived a severed connection")
		} else if !errors.Is(err, ErrShutdown) {
			t.Errorf("severed call err = %v, want ErrShutdown", err)
		}
	}
}

// TestDeadlineMidFrame fires a per-call deadline while the server is
// still chewing on the call; the abandoned response must be discarded
// without wedging the connection for later calls.
func TestDeadlineMidFrame(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := cl.Call(ctx, 50, &echoPayload{b: []byte("slow")}, &echoPayload{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The late reply must be demux-discarded, not delivered to the next
	// call on the connection.
	var reply echoPayload
	if _, _, err := cl.Call(context.Background(), 2, &echoPayload{b: []byte("after")}, &reply); err != nil {
		t.Fatalf("call after abandoned deadline: %v", err)
	}
	if string(reply.b) != "after" {
		t.Fatalf("reply = %q: the abandoned response leaked into a later call", reply.b)
	}
}

// TestDropVerdict swallows a response; the caller only escapes via its
// deadline, and the server still served the call.
func TestDropVerdict(t *testing.T) {
	h := &testHandler{}
	drop := &funcInterceptor{f: func(m uint16) Verdict {
		if m == 3 {
			return Verdict{Drop: true}
		}
		return Verdict{}
	}}
	addr, stop := startServer(t, h, ServeOptions{Intercept: drop})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := cl.Call(ctx, 3, &echoPayload{b: []byte("gone")}, &echoPayload{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dropped call err = %v, want deadline exceeded", err)
	}
	if n, _ := h.served.Load(uint16(3)); n == nil || n.(int) != 1 {
		t.Fatalf("dropped call served %v times, want 1", n)
	}
	// Connection must remain usable.
	if _, _, err := cl.Call(context.Background(), 4, &echoPayload{b: []byte("ok")}, &echoPayload{}); err != nil {
		t.Fatalf("call after drop: %v", err)
	}
}

// TestDelayVerdict stalls the request loop, delaying the matched call
// and everything queued behind it.
func TestDelayVerdict(t *testing.T) {
	delay := &funcInterceptor{f: func(m uint16) Verdict {
		if m == 5 {
			return Verdict{Delay: 120 * time.Millisecond}
		}
		return Verdict{}
	}}
	addr, stop := startServer(t, &testHandler{}, ServeOptions{Intercept: delay})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	start := time.Now()
	if _, _, err := cl.Call(context.Background(), 5, &echoPayload{b: []byte("late")}, &echoPayload{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("delayed call returned in %v, want >= ~120ms", d)
	}
}

// TestMarshalErrorDoesNotKillConn: a bad argument fails only its own
// call.
func TestMarshalErrorDoesNotKillConn(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	if _, _, err := cl.Call(context.Background(), 1, badMarshal{}, &echoPayload{}); err == nil {
		t.Fatal("marshal failure went unreported")
	} else if errors.Is(err, ErrShutdown) {
		t.Fatal("marshal failure shut the client down")
	}
	if _, _, err := cl.Call(context.Background(), 1, &echoPayload{b: []byte("fine")}, &echoPayload{}); err != nil {
		t.Fatalf("call after marshal error: %v", err)
	}
}

// TestUnmarshalableReply: a handler whose reply fails to marshal
// answers the caller with an error frame instead of hanging it.
func TestUnmarshalableReply(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	defer cl.Close()

	_, _, err := cl.Call(context.Background(), 60, &echoPayload{b: []byte("x")}, &echoPayload{})
	var se ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ServerError from reply marshal failure", err)
	}
}

// TestHandlerPanicFailsOnlyItsCall: a handler that panics answers its
// caller with a ServerError and a logged stack; a call already in
// flight on the same connection completes, and the connection serves
// on.
func TestHandlerPanicFailsOnlyItsCall(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	cl := dialClient(t, addr)

	var slowReply echoPayload
	slow := cl.Go(50, &echoPayload{b: []byte("slow")}, &slowReply, nil)
	_, _, err := cl.Call(context.Background(), 70, &echoPayload{b: []byte("x")}, &echoPayload{})
	var se ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "panicked on method 70: ragged row") {
		t.Fatalf("err = %v, want ServerError naming the panic", err)
	}
	select {
	case <-slow.Done:
		t.Fatal("the slow call finished before the panicking one; nothing was in flight")
	default:
	}
	if done := <-slow.Done; done.Err != nil || string(slowReply.b) != "slow" {
		t.Fatalf("in-flight call: reply %q, err %v", slowReply.b, done.Err)
	}
	if _, _, err := cl.Call(context.Background(), 1, &echoPayload{b: []byte("y")}, &echoPayload{}); err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	cl.Close()
	stop() // every handler has returned: the log is complete
	if out := logged.String(); !strings.Contains(out, "ragged row") || !strings.Contains(out, "ServeFrame") {
		t.Errorf("panic log lacks the value or the stack: %q", out)
	}
}

// TestObserveExactSizes checks the server-side observe hook reports
// header+payload sizes that match what the client measured.
func TestObserveExactSizes(t *testing.T) {
	var mu sync.Mutex
	type obsRec struct{ req, resp int64 }
	seen := map[uint16]obsRec{}
	opts := ServeOptions{Observe: func(m uint16, _ time.Duration, req, resp int64) {
		mu.Lock()
		seen[m] = obsRec{req, resp}
		mu.Unlock()
	}}
	addr, stop := startServer(t, &testHandler{}, opts)
	cl := dialClient(t, addr)

	req, resp, err := cl.Call(context.Background(), 11, &echoPayload{b: []byte("measure me")}, &echoPayload{})
	cl.Close()
	stop() // the hook runs after the response is written: wait the handler out
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	rec := seen[11]
	mu.Unlock()
	if rec.req != req || rec.resp != resp {
		t.Fatalf("server observed req=%d resp=%d, client measured req=%d resp=%d",
			rec.req, rec.resp, req, resp)
	}
}

// TestWrongMagicKillsConn: a client that writes garbage gets its
// connection closed rather than a stuck server.
func TestWrongMagicKillsConn(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := make([]byte, HeaderLen)
	binary.LittleEndian.PutUint32(junk[0:4], 0xDEADBEEF)
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a bad-magic frame instead of closing")
	}
}

// TestGoAfterClose fails fast with ErrShutdown.
func TestGoAfterClose(t *testing.T) {
	addr, stop := startServer(t, &testHandler{}, ServeOptions{})
	defer stop()
	cl := dialClient(t, addr)
	cl.Close()
	call := cl.Go(1, &echoPayload{b: []byte("x")}, &echoPayload{}, nil)
	<-call.Done
	if !errors.Is(call.Err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", call.Err)
	}
}

// funcInterceptor adapts a func to the Interceptor interface.
type funcInterceptor struct{ f func(uint16) Verdict }

func (fi *funcInterceptor) Intercept(m uint16) Verdict { return fi.f(m) }
