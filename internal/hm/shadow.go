package hm

// This file provides the geometry of cache "shadows" (paper §III): the
// shadow of a level-i cache λ consists of the p'_i cores that share λ and
// all lower-level caches between those cores and λ.  Because the simulator
// builds the tree contiguously, shadows are contiguous index ranges.

// Under returns the level-j caches in the shadow of λ (j <= λ.Level),
// left to right.  Under(λ, λ.Level) is the one-element slice {λ}.
func (m *Machine) Under(lambda *Cache, j int) []*Cache {
	if j > lambda.Level {
		return nil
	}
	qj := len(m.ByLevel[j-1])
	qi := len(m.ByLevel[lambda.Level-1])
	per := qj / qi
	lo := lambda.Index * per
	return m.ByLevel[j-1][lo : lo+per]
}

// SmallestFit returns the smallest cache level i (1-based) whose capacity
// C_i is at least space, or the top level if none fits (tasks larger than
// the largest cache are anchored at the top, where only cold traffic is
// guaranteed anyway).
func (m *Machine) SmallestFit(space int64) int {
	for i, l := range m.Cfg.Levels {
		if l.Capacity >= space {
			return i + 1
		}
	}
	return len(m.Cfg.Levels)
}

// LCA returns the lowest common cache of two cores (the smallest-level
// cache whose shadow contains both).
func (m *Machine) LCA(a, b int) *Cache {
	for _, c := range m.path[a] {
		if b >= c.CoreLo && b < c.CoreHi {
			return c
		}
	}
	return m.Top()
}
