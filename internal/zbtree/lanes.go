package zbtree

// Packed grid lanes: a grid coarsened to 15 bits, four coordinates to a
// uint64 whose 16-bit lanes keep a clear guard bit. A lane of q above
// p's proves q cannot dominate p (monotone quantization, DESIGN.md §5).

// laneGuard holds the guard bit of each of a word's four lanes.
const laneGuard = 0x8000800080008000

// laneWords is the lane words per row at d dimensions; a d%4 != 0 row's
// last word is zero-padded, and a zero lane never rejects.
func laneWords(d int) int { return (d + 3) / 4 }

// laneShift is the coarsening shift that fits a bits-wide grid
// coordinate into 15 bits.
func laneShift(bits int) uint { return uint(max(bits-15, 0)) }

// packLanes writes grid g, shifted right by shift, into dst's lanes:
// whole words four coordinates at a time, then the zero-padded tail.
func packLanes(dst []uint64, g []uint32, shift uint) {
	shift &= 31
	i := 0
	for ; i+4 <= len(g); i += 4 {
		q := g[i : i+4 : i+4]
		dst[i>>2] = uint64(q[0]>>shift) | uint64(q[1]>>shift)<<16 | uint64(q[2]>>shift)<<32 | uint64(q[3]>>shift)<<48
	}
	if i < len(g) {
		var x uint64
		for k, v := range g[i:] {
			x |= uint64(v>>shift) << (16 * uint(k))
		}
		dst[i>>2] = x
	}
}

// lanesSomeGreater reports whether some lane of q exceeds the same lane
// of p. Setting p's guards lets every lane subtract without borrowing
// from its neighbour (a lane is at most 0x7fff); a lane's guard survives
// exactly when p's lane is >= q's. One branch for all the words.
func lanesSomeGreater(q, p []uint64) bool {
	q = q[:len(p)]
	acc := uint64(laneGuard)
	for w, pw := range p {
		acc &= (pw | laneGuard) - q[w]
	}
	return acc&laneGuard != laneGuard
}
