package maintain

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"
)

// loadAllocs runs Load over data and returns the bytes the call
// allocated and its error.
func loadAllocs(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// loadBudget is what Load may allocate for an input of n bytes: a fixed
// allowance for the encoder and the fold, plus a multiple of the input.
func loadBudget(n int) uint64 { return 1<<20 + 64*uint64(n) }

// hostileHeader is a 30-byte ZMT2 header that claims a million
// dimensions and then ends.
func hostileHeader() []byte {
	h := append([]byte(nil), snapMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, 16)    // bits
	h = binary.LittleEndian.AppendUint32(h, 1<<20) // dims
	h = binary.LittleEndian.AppendUint64(h, 1)     // seen
	h = binary.LittleEndian.AppendUint64(h, 1)     // version
	return binary.LittleEndian.AppendUint16(h, 0)  // descriptor length
}

// TestLoadHostileHeader: a header that promises a box of 16 MiB it does
// not carry is an error that costs about what the header holds.
func TestLoadHostileHeader(t *testing.T) {
	h := hostileHeader()
	for _, data := range [][]byte{h, append(h, make([]byte, 100)...)} {
		alloc, err := loadAllocs(data)
		if err == nil {
			t.Fatalf("%d-byte snapshot accepted", len(data))
		}
		if alloc > loadBudget(len(data)) {
			t.Fatalf("%d-byte snapshot allocated %d bytes before failing", len(data), alloc)
		}
	}
}

// FuzzMaintainLoad throws arbitrary bytes at Load, seeded with both
// committed snapshots, a fresh save and the hostile header: any input
// is a maintainer or an error — never a panic — and allocation stays
// within a budget set by the input's size.
func FuzzMaintainLoad(f *testing.F) {
	for _, file := range []string{flexFixture, legacyFixture} {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	m, err := NewUnit(2, 8)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.Insert(legacyRows()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		if alloc, _ := loadAllocs(data); alloc > loadBudget(len(data)) {
			t.Fatalf("%d-byte snapshot allocated %d bytes", len(data), alloc)
		}
	})
}
