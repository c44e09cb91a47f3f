package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameRoundTrip feeds arbitrary bytes through the header decoder
// and, when a frame survives, re-encodes it and checks the bytes are
// identical. The seed corpus covers the interesting failure classes:
// truncated headers, oversized announced lengths, wrong magic, status
// bytes an error frame may carry and ones no frame may, and an
// interleaved-sequence pair of frames.
func FuzzFrameRoundTrip(f *testing.F) {
	frame := func(method uint16, flags Flags, seq uint64, payload []byte) []byte {
		h := Header{Method: method, Flags: flags, Seq: seq, Len: uint32(len(payload))}
		return append(h.AppendTo(nil), payload...)
	}

	// A clean small frame.
	f.Add(frame(3, 0, 1, []byte("payload")))
	// Error-flagged response frames, one per status code.
	for s := StatusPlain; s < numStatus; s++ {
		e := frame(9, FlagError, 42, []byte("rule 7 not loaded"))
		e[7] = byte(s)
		f.Add(e)
	}
	// An unknown status code on an error frame.
	unknown := frame(9, FlagError, 43, []byte("x"))
	unknown[7] = byte(numStatus)
	f.Add(unknown)
	// Truncated: header cut mid-sequence field.
	f.Add(frame(1, 0, 7, nil)[:12])
	// Truncated: full header but payload shorter than announced.
	f.Add(frame(2, 0, 8, []byte("abcdef"))[:HeaderLen+3])
	// Oversized announced length (4 GiB-1) with no payload behind it.
	over := frame(4, 0, 9, nil)
	binary.LittleEndian.PutUint32(over[16:20], 0xFFFFFFFF)
	f.Add(over)
	// Wrong magic — a gob client's first bytes, say.
	wrong := frame(5, 0, 10, []byte("x"))
	binary.LittleEndian.PutUint32(wrong[0:4], 0x0BAD0BAD)
	f.Add(wrong)
	// A status byte on a frame that is not an error response.
	for _, b := range []byte{byte(StatusShardMoved), 0x80} {
		resv := frame(6, 0, 11, nil)
		resv[7] = b
		f.Add(resv)
	}
	// Interleaved sequences: two complete frames back to back with
	// out-of-order sequence numbers, as a demuxing stream would see.
	f.Add(append(frame(7, 0, 100, []byte("second issued")),
		frame(7, 0, 99, []byte("first issued"))...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the input as a stream of frames, like the read loops do.
		rest := data
		for len(rest) >= HeaderLen {
			h, err := DecodeHeader(rest[:HeaderLen], 0)
			if err != nil {
				// Rejected header: decoder must not have mutated its input.
				return
			}
			if h.Status >= numStatus || (h.Status != StatusPlain && h.Flags&FlagError == 0) {
				t.Fatalf("accepted status %d on a frame with flags %#x", h.Status, h.Flags)
			}
			if h.Len > uint32(len(rest)-HeaderLen) {
				return // truncated payload; stream would block then die
			}
			// Round-trip: re-encoding the decoded header must reproduce
			// the original header bytes exactly.
			re := h.AppendTo(nil)
			if !bytes.Equal(re, rest[:HeaderLen]) {
				t.Fatalf("header round-trip mismatch:\n in=%x\nout=%x", rest[:HeaderLen], re)
			}
			if len(re) != HeaderLen {
				t.Fatalf("encoded header is %d bytes, want %d", len(re), HeaderLen)
			}
			rest = rest[HeaderLen+int(h.Len):]
		}
	})
}
