package zbtree

import (
	"fmt"
	"slices"
)

// Validate checks the tree's structural invariants: leaves at one
// depth, no empty node, rows in Z-order, every row's grid inside its
// leaf's box, every child box inside its parent's, and counts that add
// up.
func (t *BlockTree) Validate() error {
	if t.root < 0 {
		return nil
	}
	leafDepth := -1
	var check func(n int32, depth int) (int32, error)
	check = func(n int32, depth int) (int32, error) {
		nd, r := &t.nodes[n], t.region(n)
		if nd.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("unbalanced: leaf at depth %d and %d", leafDepth, depth)
			}
			if len(nd.rows) == 0 {
				return 0, fmt.Errorf("empty leaf")
			}
			if !slices.IsSortedFunc(nd.rows, func(a, b int32) int { return t.st.zc.Compare(int(a), int(b)) }) {
				return 0, fmt.Errorf("leaf rows out of Z-order")
			}
			for _, e := range nd.rows {
				for k, v := range t.st.Grid(e) {
					if v < r.MinG[k] || v > r.MaxG[k] {
						return 0, fmt.Errorf("row %d grid %v outside region [%v,%v]", e, t.st.Grid(e), r.MinG, r.MaxG)
					}
				}
			}
			if int(nd.count) != len(nd.rows) {
				return 0, fmt.Errorf("leaf count %d != %d", nd.count, len(nd.rows))
			}
			return nd.count, nil
		}
		if len(nd.kids) == 0 {
			return 0, fmt.Errorf("empty internal node")
		}
		var total int32
		for _, kid := range nd.kids {
			cnt, err := check(kid, depth+1)
			if err != nil {
				return 0, err
			}
			total += cnt
			kr := t.region(kid)
			for k := range kr.MinG {
				if kr.MinG[k] < r.MinG[k] || kr.MaxG[k] > r.MaxG[k] {
					return 0, fmt.Errorf("child region escapes parent")
				}
			}
		}
		if total != nd.count {
			return 0, fmt.Errorf("internal count %d != %d", nd.count, total)
		}
		return total, nil
	}
	if _, err := check(t.root, 0); err != nil {
		return err
	}
	if !slices.IsSortedFunc(t.Rows(), func(a, b int32) int { return t.st.zc.Compare(int(a), int(b)) }) {
		return fmt.Errorf("rows out of Z-order")
	}
	return nil
}

// boxLanes returns a copy of node n's box min corner in lanes, prefix
// then tail.
func (t *BlockTree) boxLanes(n int32) []uint64 {
	return append(slices.Clone(t.minPre[int(n)*prefixWords:][:prefixWords]), t.minTail[int(n)*t.tw:][:t.tw]...)
}

// lanesOf returns a copy of row i's lanes, prefix then tail.
func (st *Store) lanesOf(i int32) []uint64 {
	return st.rowLanes(make([]uint64, prefixWords+st.tw), i)
}
