package dist

import (
	"fmt"

	"zskyline/internal/partition"
	"zskyline/internal/zorder"
)

// ShardAssign assigns one shard — a contiguous Z-range — to a worker
// group. The ID is stable across rebalances: a handoff changes a
// shard's Group but never its ID, so routing state (per-shard locks,
// stale-replica sets, metrics series) survives ownership changes.
type ShardAssign struct {
	// ID is the shard's stable identifier.
	ID int
	// Group is the index of the worker group that owns the shard's
	// Z-range in this map version.
	Group int
}

// ShardMap is the versioned ownership table of the sharded tier: the
// Z-order curve cut into len(Shards) contiguous ranges, each assigned
// to a worker group. It rides the rule broadcast (RuleBlob.Shards), so
// the same path that re-installs rules on resurrected workers also
// re-installs current ownership, and it is the unit the rolling
// handoff swaps: a rebalance streams a shard's data to its successor
// group, then publishes a map whose Version is one higher.
//
// Shards[i] owns the half-open Z-range [Cuts[i-1], Cuts[i]) (the first
// and last ranges extend to the curve's ends). Because the ranges come
// from one sorted cut list, every Z-address has exactly one owner by
// construction, at every version.
type ShardMap struct {
	// Version orders map revisions; workers ignore installs that would
	// move their version backward.
	Version uint64
	// Words is the Z-address width in uint64 words.
	Words int
	// Cuts are the len(Shards)-1 strictly increasing cut addresses.
	Cuts [][]uint64
	// Shards assigns each range, in curve order, to a worker group.
	Shards []ShardAssign
}

// Empty reports whether the map carries no shards — the state of a
// RuleBlob from the unsharded tier.
func (m ShardMap) Empty() bool { return len(m.Shards) == 0 }

// NumShards returns the shard count.
func (m ShardMap) NumShards() int { return len(m.Shards) }

// Validate checks structural soundness: cuts strictly increasing and of
// the declared width, one more shard than cuts, IDs unique, groups
// within [0, groups).
func (m ShardMap) Validate(groups int) error {
	if m.Empty() {
		return fmt.Errorf("dist: shard map has no shards")
	}
	if len(m.Cuts) != len(m.Shards)-1 {
		return fmt.Errorf("dist: shard map has %d cuts for %d shards", len(m.Cuts), len(m.Shards))
	}
	if _, err := m.table(); err != nil {
		return err
	}
	ids := map[int]bool{}
	for _, s := range m.Shards {
		if ids[s.ID] {
			return fmt.Errorf("dist: duplicate shard id %d", s.ID)
		}
		ids[s.ID] = true
		if s.Group < 0 || s.Group >= groups {
			return fmt.Errorf("dist: shard %d assigned to group %d of %d", s.ID, s.Group, groups)
		}
	}
	return nil
}

// table compiles the cut list into a range table.
func (m ShardMap) table() (*partition.RangeTable, error) {
	cuts := make([]zorder.ZAddr, len(m.Cuts))
	for i, c := range m.Cuts {
		cuts[i] = zorder.ZAddr(c)
	}
	return partition.NewRangeTable(m.Words, cuts)
}

// IndexOf returns the index of the shard with the given stable ID, or
// -1.
func (m ShardMap) IndexOf(shardID int) int {
	for i, s := range m.Shards {
		if s.ID == shardID {
			return i
		}
	}
	return -1
}

// Clone deep-copies the map.
func (m ShardMap) Clone() ShardMap {
	out := ShardMap{Version: m.Version, Words: m.Words,
		Shards: append([]ShardAssign(nil), m.Shards...)}
	out.Cuts = make([][]uint64, len(m.Cuts))
	for i, c := range m.Cuts {
		out.Cuts[i] = append([]uint64(nil), c...)
	}
	return out
}

// WithOwner returns a copy of the map with shard index i reassigned to
// group and the version bumped — the map a completed handoff publishes.
func (m ShardMap) WithOwner(i, group int) ShardMap {
	out := m.Clone()
	out.Shards[i].Group = group
	out.Version = m.Version + 1
	return out
}

// UniformShardMap builds version 1 of an n-shard map over words-wide
// addresses: the curve's leading 64 bits split into n equal prefixes,
// shards assigned to the groups round-robin. Data-driven cuts can be
// supplied instead through ClusterConfig.Cuts.
func UniformShardMap(words, n, groups int) ShardMap {
	m := ShardMap{Version: 1, Words: words}
	for _, c := range partition.UniformCuts(words, n) {
		m.Cuts = append(m.Cuts, c)
	}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, ShardAssign{ID: i, Group: i % groups})
	}
	return m
}
