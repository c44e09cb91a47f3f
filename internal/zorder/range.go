package zorder

// Range is a half-open interval [Lo, Hi) of the Z-order curve. An
// absent Lo — nil or zero-length, decoders produce either — means the
// curve's origin (all-zero address) and an absent Hi means past-the-end
// (every address compares below it), so the full curve is Range{} — the
// zero value. Ranges are the ownership unit of the
// sharded distributed tier: a shard owns every point whose Z-address
// falls inside its range.
type Range struct {
	Lo, Hi ZAddr
}

// Contains reports whether address a falls inside the range.
func (r Range) Contains(a ZAddr) bool {
	if len(r.Lo) != 0 && Compare(a, r.Lo) < 0 {
		return false
	}
	return len(r.Hi) == 0 || Compare(a, r.Hi) < 0
}

// Overlaps reports whether the two ranges share at least one address.
// Empty ranges (Lo >= Hi) overlap nothing.
func (r Range) Overlaps(o Range) bool {
	if r.empty() || o.empty() {
		return false
	}
	if len(r.Hi) != 0 && len(o.Lo) != 0 && Compare(o.Lo, r.Hi) >= 0 {
		return false
	}
	if len(o.Hi) != 0 && len(r.Lo) != 0 && Compare(r.Lo, o.Hi) >= 0 {
		return false
	}
	return true
}

func (r Range) empty() bool {
	return len(r.Lo) != 0 && len(r.Hi) != 0 && Compare(r.Lo, r.Hi) >= 0
}

// FilterRows appends to dst the indices of column rows whose address
// falls inside the range, in row order — the residency filter a shard
// query applies before computing a range-scoped skyline.
func (r Range) FilterRows(dst []int32, zc ZCol) []int32 {
	n := zc.Len()
	for i := 0; i < n; i++ {
		if r.Contains(zc.At(i)) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}
