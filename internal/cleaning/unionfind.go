package cleaning

// UnionFind is a disjoint-set forest over dense int32 ids (the ids of a
// types.TupleTable) with path halving and union by rank. It is the
// transitive-closure machinery shared by duplicate clustering (DupClusters)
// and denial-constraint repair, where violations that touch a common tuple
// must be repaired together.
type UnionFind struct {
	parent []int32
	rank   []uint8
}

// NewUnionFind returns an empty forest; it grows to cover every id it is
// handed.
func NewUnionFind() *UnionFind { return &UnionFind{} }

// Find returns the representative of x's set, adding x as a singleton if it
// is unknown.
func (u *UnionFind) Find(x int32) int32 {
	for id := int32(len(u.parent)); id <= x; id++ {
		u.parent = append(u.parent, id)
		u.rank = append(u.rank, 0)
	}
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing a and b.
func (u *UnionFind) Union(a, b int32) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Groups partitions the ids of order into their sets: members keep order's
// sequence and groups are ordered by their first member, so a caller that
// passes ids sorted by canonical key gets the deterministic partition the
// key order defines.
func (u *UnionFind) Groups(order []int32) [][]int32 {
	slot := map[int32]int{}
	var out [][]int32
	for _, id := range order {
		root := u.Find(id)
		i, ok := slot[root]
		if !ok {
			i = len(out)
			slot[root] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], id)
	}
	return out
}
