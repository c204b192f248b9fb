// Package cluster provides spatial analysis of lattice configurations:
// connected-component labelling (union–find) of same-species domains,
// island counting and size distributions. parsurf.Clusters exposes it
// for one species, e.g. the particle domains of a diffusion run.
package cluster

import (
	"parsurf/internal/lattice"
)

// unionFind is a weighted quick-union structure with path halving.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}

// Labeling is the result of connected-component analysis.
type Labeling struct {
	// Label[s] is the component id of site s, or -1 for sites outside
	// the selected species set.
	Label []int32
	// Sizes[id] is the number of sites in component id.
	Sizes []int
}

// NumClusters returns the number of components.
func (lb *Labeling) NumClusters() int { return len(lb.Sizes) }

// LargestCluster returns the size of the biggest component (0 if none).
func (lb *Labeling) LargestCluster() int {
	max := 0
	for _, s := range lb.Sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// Components labels the 4-connected clusters of sites whose species
// satisfies the predicate (periodic boundaries included).
func Components(c *lattice.Config, include func(lattice.Species) bool) *Labeling {
	lat := c.Lattice()
	n := lat.N()
	uf := newUnionFind(n)
	// Union east and north neighbours only: each undirected bond once.
	east := lattice.Vec{DX: 1}
	north := lattice.Vec{DY: 1}
	for s := 0; s < n; s++ {
		if !include(c.Get(s)) {
			continue
		}
		if e := lat.Translate(s, east); include(c.Get(e)) {
			uf.union(int32(s), int32(e))
		}
		if v := lat.Translate(s, north); include(c.Get(v)) {
			uf.union(int32(s), int32(v))
		}
	}
	lb := &Labeling{Label: make([]int32, n)}
	rootToID := make(map[int32]int32)
	for s := 0; s < n; s++ {
		if !include(c.Get(s)) {
			lb.Label[s] = -1
			continue
		}
		root := uf.find(int32(s))
		id, ok := rootToID[root]
		if !ok {
			id = int32(len(lb.Sizes))
			rootToID[root] = id
			lb.Sizes = append(lb.Sizes, 0)
		}
		lb.Label[s] = id
		lb.Sizes[id]++
	}
	return lb
}

// SpeciesComponents labels clusters of exactly one species.
func SpeciesComponents(c *lattice.Config, sp lattice.Species) *Labeling {
	return Components(c, func(s lattice.Species) bool { return s == sp })
}

// Stats summarises a labelling.
type Stats struct {
	Clusters int
	Sites    int
	Largest  int
	MeanSize float64
}

// Summarize computes aggregate statistics of a labelling.
func Summarize(lb *Labeling) Stats {
	st := Stats{Clusters: lb.NumClusters(), Largest: lb.LargestCluster()}
	for _, s := range lb.Sizes {
		st.Sites += s
	}
	if st.Clusters > 0 {
		st.MeanSize = float64(st.Sites) / float64(st.Clusters)
	}
	return st
}
