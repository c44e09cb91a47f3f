package codec

import (
	"bytes"
	"math"
	"testing"

	"zskyline/internal/point"
)

// FuzzReadBinary hardens the binary parser: arbitrary input must never
// panic, and valid-looking prefixes must fail cleanly.
func FuzzReadBinary(f *testing.F) {
	// Seed with a real encoding and mutations of it.
	ds := mustTinyDataset()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err == nil {
			// Anything accepted must re-encode cleanly.
			var out bytes.Buffer
			if err := WriteBinary(&out, got); err != nil {
				t.Fatalf("accepted dataset fails to re-encode: %v", err)
			}
		}
	})
}

// FuzzBinaryReader hardens the streaming reader: arbitrary bytes through
// NewBinaryReader and a NextBlock loop must never panic, and a header
// claiming a giant payload must not be trusted with an allocation.
func FuzzBinaryReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, mustTinyDataset()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hostileHeader(1<<20, 1<<40))
	f.Add(hostileHeader(1024, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			b, err := br.NextBlock(8192)
			if err != nil {
				return
			}
			if b.Dims != br.Dims() || len(b.Data)%b.Dims != 0 {
				t.Fatalf("ragged block: %d coords, %d dims", len(b.Data), b.Dims)
			}
		}
	})
}

// FuzzReadCSV hardens the CSV parser the same way.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("# comment\n\n1\n")
	f.Add("a,b\n1,2\n")
	f.Fuzz(func(t *testing.T, s string) {
		ds, err := ReadCSV(bytes.NewReader([]byte(s)))
		if err == nil && ds.Len() > 0 && len(ds.Points[0]) != ds.Dims {
			t.Fatal("inconsistent dims accepted")
		}
		_, _, _ = ReadNamedCSV(bytes.NewReader([]byte(s)))
	})
}

func mustTinyDataset() *point.Dataset {
	return point.MustDataset(2, []point.Point{{1, 2}, {3, 4}})
}

// FuzzBlockRoundTrip hardens point.Block's binary frame decoder, the
// one behind every block in a dist wire payload: arbitrary bytes must
// never panic, truncated frames and dims/payload mismatches must fail
// cleanly, and anything accepted must round-trip.
func FuzzBlockRoundTrip(f *testing.F) {
	// Seed with a valid frame plus the corpus of classic corruptions.
	valid, err := point.BlockOf(3, []point.Point{{1, 2, 3}, {4, 5, 6}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:3])                                   // truncated dims field
	f.Add(valid[:7])                                   // truncated frame header
	f.Add(valid[:len(valid)-5])                        // truncated payload
	f.Add(append(append([]byte(nil), valid...), 0xAA)) // trailing garbage
	// Ragged: the payload loses one float64, so it no longer holds
	// rows x dims coordinates.
	f.Add(valid[:len(valid)-8])
	// Huge declared dims with no payload.
	f.Add([]byte{0xff, 0xff, 0x0f, 0x00, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got point.Block
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		if got.Dims > 0 && len(got.Data)%got.Dims != 0 {
			t.Fatalf("accepted ragged block: %d coords, %d dims", len(got.Data), got.Dims)
		}
		out, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted block fails to re-encode: %v", err)
		}
		var back point.Block
		if err := back.UnmarshalBinary(out); err != nil {
			t.Fatalf("re-encoded block fails to decode: %v", err)
		}
		if back.Len() != got.Len() || back.Dims != got.Dims {
			t.Fatalf("round trip drifted: %dx%d -> %dx%d", got.Len(), got.Dims, back.Len(), back.Dims)
		}
		for i := range got.Data {
			if math.Float64bits(back.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("round trip drifted at coordinate %d", i)
			}
		}
	})
}
