package zorder

// Interleave tables. The bit loops of encodeGridBits/decodeGridBits
// take one unpredictable branch per address bit; for shapes where a
// table stays cache-sized the encoder precomputes, from (dims, bits)
// alone, where every chunk of input bits lands, and both directions
// become a few lookups OR-ed together. Addresses are bit-identical to
// the loops'.

// maxTableBytes caps each table. d = 8 at 16 bits fills it exactly
// (8 dims × 2 bytes × 256 values × 2 words); shapes past it keep the
// bit loops.
const maxTableBytes = 64 << 10

// buildTables fills e.spread and e.gather when the shape allows.
//
// spread[((d*nb+b)<<8|v)*words:][:words] is the address with exactly
// the bits that byte b (0 = least significant of nb) of dimension d's
// coordinate contributes when that byte is v.
//
// gather[(c<<4|v)*4:][:4] describes address nibble c (0 = most
// significant) holding v: one entry per address bit, the target
// dimension in the high half and the coordinate bit it sets (or zero)
// in the low half.
func (e *Encoder) buildTables() {
	nb := (e.bits + 7) / 8
	if e.dims*nb*256*e.words*8 <= maxTableBytes {
		w := e.words
		e.spread = make([]uint64, e.dims*nb*256*w)
		for d := 0; d < e.dims; d++ {
			for b := 0; b < nb; b++ {
				// Doubling: the values with bit i as their top bit are
				// the values below them with that one address bit added.
				rows := e.spread[(d*nb+b)*256*w:][:256*w]
				for i := 0; i < 8; i++ {
					half := w << uint(i)
					copy(rows[half:2*half], rows[:half])
					if b*8+i >= e.bits {
						continue
					}
					pos := (e.bits-1-(b*8+i))*e.dims + d
					for at := half + pos/64; at < 2*half; at += w {
						rows[at] |= 1 << uint(63-pos%64)
					}
				}
			}
		}
	}
	nibbles := e.words * 16
	if nibbles*16*4*8 <= maxTableBytes {
		e.gather = make([]uint64, nibbles*16*4)
		for pos := 0; pos < e.TotalBits(); pos++ {
			c, lane := pos/4, pos%4
			entry := uint64(pos%e.dims)<<32 | 1<<uint(e.bits-1-pos/e.dims)
			for v := 0; v < 16; v++ {
				if v>>uint(3-lane)&1 != 0 {
					e.gather[(c<<4|v)*4+lane] = entry
				}
			}
		}
	}
}

func (e *Encoder) encodeGridTable(z ZAddr, g []uint32) ZAddr {
	for i := range z {
		z[i] = 0
	}
	w, nb := e.words, (e.bits+7)/8
	out := z[:w]
	i := 0
	for _, x := range g[:e.dims] {
		for b := 0; b < nb; b++ {
			for k, bitsOf := range e.spread[(i<<8|int(x&0xff))*w:][:w] {
				out[k] |= bitsOf
			}
			x >>= 8
			i++
		}
	}
	return z
}

func (e *Encoder) decodeGridTable(g []uint32, z ZAddr) []uint32 {
	for i := range g {
		g[i] = 0
	}
	c := 0
	for _, word := range z {
		for shift := 60; shift >= 0; shift -= 4 {
			v := int(word >> uint(shift) & 0xf)
			if v != 0 {
				for _, entry := range e.gather[(c<<4|v)*4:][:4] {
					g[entry>>32] |= uint32(entry)
				}
			}
			c++
		}
	}
	return g
}
