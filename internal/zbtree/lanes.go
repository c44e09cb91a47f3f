package zbtree

// Packed grid lanes: a grid coarsened to 15 bits, four coordinates to a
// uint64 whose 16-bit lanes keep a clear guard bit. A lane of q above
// p's proves q cannot dominate p (monotone quantization, DESIGN.md §5).
//
// The arenas keep a row's (and a node min corner's) lanes in two parts:
// the prefix, its first two words (coordinates 0–7), at stride 2 for
// every d, and the tail, the words of coordinates 8 and up, at stride
// laneWords(d)−2, empty at d <= 8. The probe's leaf scan tests the
// prefix alone in a tight loop (passPrefix) and the tail only for the
// rows the prefix passes.

// laneGuard holds the guard bit of each of a word's four lanes.
const laneGuard = 0x8000800080008000

// prefixWords is the lane words of the prefix.
const prefixWords = 2

// laneWords is the lane words per row at d dimensions, never fewer than
// the prefix's: a d%4 != 0 row's last word is zero-padded, a d <= 4
// row's second word is zero, and a zero lane never rejects.
func laneWords(d int) int { return max((d+3)/4, prefixWords) }

// laneShift is the coarsening shift that fits a bits-wide grid
// coordinate into 15 bits.
func laneShift(bits int) uint { return uint(max(bits-15, 0)) }

// packLanes writes grid g, shifted right by shift, into dst's lanes:
// whole words four coordinates at a time, then the zero-padded tail,
// then zero words to the end of dst.
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
		i += 4
	}
	clear(dst[i>>2:])
}

// packSplit packs grid g into a prefix of two words and the tail:
// packLanes of g split at coordinate 8.
func packSplit(pre, tail []uint64, g []uint32, shift uint) {
	k := min(len(g), 4*prefixWords)
	packLanes(pre, g[:k], shift)
	packLanes(tail, g[k:], shift)
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

// prefixPasses reports whether no lane of the prefix words q0, q1
// exceeds p's; p0 and p1 are p's prefix words with their guards set.
func prefixPasses(q0, q1, p0, p1 uint64) bool {
	return (p0-q0)&(p1-q1)&laneGuard == laneGuard
}

// passPrefix returns the first index i >= from of rows whose prefix in
// pre (stride 2) prefixPasses against p0, p1, or len(rows). It is the
// probe's leaf scan: with only the two words and the arena live, it
// runs at a few cycles a row, and almost every row stops here.
//
//go:noinline
func passPrefix(rows []int32, from int, pre []uint64, p0, p1 uint64) int {
	for i, e := range rows[from:] {
		k := int(e) * prefixWords
		if prefixPasses(pre[k], pre[k+1], p0, p1) {
			return from + i
		}
	}
	return len(rows)
}
