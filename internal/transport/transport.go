// Package transport is the dist tier's wire protocol: a minimal
// length-prefixed binary frame over TCP, replacing net/rpc+gob.
//
// The data plane of a distributed skyline query is already binary —
// point.Block and zorder.ZCol marshal to flat little-endian frames —
// so re-encoding those bytes through reflective gob on every RPC only
// inflates the communication cost the distributed-skyline literature
// identifies as the dominant term (Zhang & Zhang, "Computing Skylines
// on Distributed Data"). Here a call is one frame each way:
//
//	offset size field
//	0      4    magic   0x5A465231 ("ZFR1"), little-endian
//	4      2    method  numeric method id (the caller's registry)
//	6      1    flags   bit0 = error response (payload is the message)
//	7      1    status  an error response's verdict code (0 plain,
//	                    1 rule-missing, 2 shard-moved); zero otherwise
//	8      8    sequence, echoed by the response
//	16     4    payload length
//	20     …    payload  the method's binary frame
//
// Payload encoding is the caller's business: dist's wire types append
// their existing Block/ZCol frames directly (see internal/dist
// protocol encoders), with gob surviving only for the few small
// control structs where reflection cost is irrelevant.
//
// Client owns one TCP connection, multiplexes concurrent calls by
// sequence number, honours per-call contexts, and reports the exact
// on-wire size of each request and response — so RPC byte metrics come
// from the frame header rather than payload estimates. ServeConn is
// the server side: one goroutine per in-flight call, responses
// serialized on the write side, with an optional Interceptor that can
// delay, drop, or sever individual calls (fault injection lives at
// this seam, where the method id and the raw connection meet).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

const (
	// Magic opens every frame. A connection that presents anything else
	// is not speaking this protocol (a gob worker, say) and is closed:
	// framed and gob endpoints are not mix-and-match.
	Magic uint32 = 0x5A465231 // "ZFR1"

	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 20

	// DefaultMaxPayload bounds a frame's payload length. A header
	// announcing more than this is a protocol violation (corrupt or
	// hostile peer), not a large message, and kills the connection.
	DefaultMaxPayload = 1 << 30
)

// Flags is the frame header's flag byte.
type Flags uint8

const (
	// FlagError marks a response whose payload is an error message
	// rather than a reply frame — the worker executed (or rejected) the
	// call and this is its verdict, distinct from transport failures.
	FlagError Flags = 1 << 0
)

// Status is the verdict code an error response carries in header byte
// 7, so a caller can tell the verdicts it can cure apart without reading
// the message.
type Status uint8

const (
	// StatusPlain is an ordinary verdict: the worker rejected the call.
	StatusPlain Status = iota
	// StatusRuleMissing: the worker does not hold the rule the call
	// names.
	StatusRuleMissing
	// StatusShardMoved: the worker does not hold the shard the call
	// names at the caller's map version.
	StatusShardMoved
	numStatus
)

// Header is a decoded frame header.
type Header struct {
	Method uint16
	Flags  Flags
	// Status is an error response's verdict code; zero on every other
	// frame.
	Status Status
	Seq    uint64
	Len    uint32
}

// AppendTo appends the header's wire form to dst.
func (h Header) AppendTo(dst []byte) []byte {
	var b [HeaderLen]byte
	binary.LittleEndian.PutUint32(b[0:4], Magic)
	binary.LittleEndian.PutUint16(b[4:6], h.Method)
	b[6] = byte(h.Flags)
	b[7] = byte(h.Status)
	binary.LittleEndian.PutUint64(b[8:16], h.Seq)
	binary.LittleEndian.PutUint32(b[16:20], h.Len)
	return append(dst, b[:]...)
}

// DecodeHeader parses one frame header, validating magic and the
// status byte: a known code, and zero unless the frame is an error
// response. maxPayload guards the announced length; pass 0 for
// DefaultMaxPayload.
func DecodeHeader(b []byte, maxPayload uint32) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, fmt.Errorf("transport: short header: %d bytes", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != Magic {
		return h, fmt.Errorf("transport: bad magic %#08x (framed and gob endpoints don't mix)", m)
	}
	h.Method = binary.LittleEndian.Uint16(b[4:6])
	h.Flags = Flags(b[6])
	h.Status = Status(b[7])
	if h.Status >= numStatus || (h.Status != StatusPlain && h.Flags&FlagError == 0) {
		return h, fmt.Errorf("transport: status byte %#02x on a frame with flags %#02x", b[7], b[6])
	}
	h.Seq = binary.LittleEndian.Uint64(b[8:16])
	h.Len = binary.LittleEndian.Uint32(b[16:20])
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if h.Len > maxPayload {
		return h, fmt.Errorf("transport: payload length %d exceeds cap %d", h.Len, maxPayload)
	}
	return h, nil
}

// Marshaler is a request or reply that can append its payload frame.
type Marshaler interface {
	AppendTo(dst []byte) ([]byte, error)
}

// Unmarshaler is a request or reply that can decode its payload frame.
// Implementations must copy what they keep: the buffer is reused.
type Unmarshaler interface {
	DecodeFrom(data []byte) error
}

// ServerError is a worker-side verdict carried in a FlagError
// response: the call reached the worker and the worker answered with
// an error. It is the framed analogue of rpc.ServerError, and the
// retry layer's classifier keys on the distinction — a ServerError
// means the bytes arrived, everything else means they may not have —
// and on its Status. A handler returns one (wrapped or not) to set the
// response's status code; any other error answers StatusPlain.
type ServerError struct {
	Status Status
	Msg    string
}

// Error returns the worker's message.
func (e ServerError) Error() string { return e.Msg }

// ErrShutdown is returned by calls issued on (or in flight over) a
// closed client connection. Retryable: the request may never have
// reached the worker.
var ErrShutdown = errors.New("transport: connection is shut down")

// scratch is the shared marshal arena: frame buffers are pooled across
// calls and connections so steady-state request/response encoding
// allocates nothing beyond what payload growth demands.
var scratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getScratch() *[]byte  { return scratch.Get().(*[]byte) }
func putScratch(b *[]byte) { *b = (*b)[:0]; scratch.Put(b) }
