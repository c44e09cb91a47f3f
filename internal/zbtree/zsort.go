package zbtree

import (
	"slices"

	"zskyline/internal/zorder"
)

// Sorting rows by Z-address for BuildRows. The order is exactly
// slices.SortStableFunc's over ZCol.Compare — rows with equal addresses
// keep their input order. Rows already in Z-order cost one scan; any
// other input (a phase-2 group in random order, the sorted runs Z-merge
// and the one-tree probe lay end to end) is LSD-radix sorted on the
// addresses' leading word, a byte a pass, skipping the bytes every row
// shares, and only rows tied on the whole leading word are then compared
// in full. Inputs of up to smallSort rows go to slices.SortStableFunc,
// which allocates nothing.

const smallSort = 64

// sortByZ sorts rows stably by their Z-address in zc.
func sortByZ(zc zorder.ZCol, rows []int32) {
	if len(rows) <= smallSort {
		sortStableByZ(zc, rows)
		return
	}
	for i := 1; i < len(rows); i++ {
		if zc.Compare(int(rows[i-1]), int(rows[i])) > 0 {
			radixByZ(zc, rows)
			return
		}
	}
}

// radixByZ sorts rows by Z-address: a stable LSD radix sort on the
// leading word of each address, read from zc in every pass, then a
// stable sort of every run of rows that tie on it by the whole address.
func radixByZ(zc zorder.ZCol, rows []int32) {
	n, words, data := len(rows), zc.Words, zc.Data
	lead := func(r int32) uint64 { return data[int(r)*words] }
	ra, rb := rows, make([]int32, n)
	var counts [8][256]int32
	for _, r := range rows {
		k := lead(r)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		c := &counts[b]
		shift := uint(8 * b)
		if c[byte(lead(ra[0])>>shift)] == int32(n) {
			continue // every row shares this byte
		}
		var at int32
		for v, k := range c {
			c[v], at = at, at+k
		}
		for _, r := range ra {
			v := byte(lead(r) >> shift)
			rb[c[v]] = r
			c[v]++
		}
		ra, rb = rb, ra
	}
	if &ra[0] != &rows[0] {
		copy(rows, ra)
	}
	if words == 1 {
		return
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && lead(rows[hi]) == lead(rows[lo]) {
			hi++
		}
		if hi-lo > 1 {
			sortStableByZ(zc, rows[lo:hi])
		}
		lo = hi
	}
}

// sortStableByZ is slices.SortStableFunc over zc's addresses.
func sortStableByZ(zc zorder.ZCol, rows []int32) {
	slices.SortStableFunc(rows, func(a, b int32) int { return zc.Compare(int(a), int(b)) })
}
