// Package cover implements the Parallel Treewidth k-d Cover of Section
// 2.1 (Theorem 2.4) and its separating variant from Section 5.2.1.
//
// Given the Exponential Start Time clustering, every cluster is searched
// by a parallel BFS from its center; band i of a cluster is the subgraph
// induced by the vertices at BFS levels i through i+d. Theorem 2.4
// guarantees (for planar targets) that each band has treewidth at most
// 3d, each vertex lies in at most d+1 bands, and a fixed occurrence of a
// connected k-vertex pattern of diameter d survives — lands entirely
// inside one band — with probability at least 1/2.
//
// The separating variant cuts the same level windows, in the same loop,
// as minors instead of induced subgraphs: the band's vertices stay, and
// every other vertex of G is contracted per connected component of G
// minus the band (one contraction over the whole graph per band). Merged
// vertices inherit the S-membership of their class and are excluded from
// the allowed set, so an S-separating occurrence inside the band remains
// S-separating in the minor (Figure 7). Relative to the paper — which
// merges each neighboring cluster into one vertex — contracting the
// components of G minus the band is the same operation done exactly:
// contraction classes are connected and avoid the band, so the
// connectivity structure of G minus any band subset is preserved
// exactly.
package cover

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"planarsi/internal/bfs"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/par"
	"planarsi/internal/wd"
)

// Band is one element of a k-d cover: an induced subgraph (or minor, for
// separating covers) of the target graph.
type Band struct {
	// G is the band graph with local vertex ids.
	G *graph.Graph
	// Orig maps local ids to original target ids; merged minor vertices
	// map to -1.
	Orig []int32
	// Cluster and Level identify the band (BFS levels [Level, Level+d]
	// of that cluster).
	Cluster int32
	Level   int32
	// Allowed marks local vertices usable as pattern images (always true
	// for plain covers; false on merged vertices of separating covers).
	Allowed []bool
	// S marks local vertices in the terminal set (separating covers).
	S []bool
	// LowestLevelLocal lists the local ids at BFS level == Level: the
	// listing algorithm only reports occurrences touching the lowest
	// band level, so each occurrence is counted once per cluster
	// (Section 4.2.1).
	LowestLevelLocal []bool
}

// Validate checks the band's invariants against an n-vertex target: the
// Orig map covers every band vertex with target ids (or -1 for merged
// minor vertices) and the optional per-vertex marks have the band's
// size. Snapshot decoding calls it so a band restored from an untrusted
// file can never index out of the target's arrays.
func (b *Band) Validate(n int) error {
	if b.G == nil {
		return fmt.Errorf("cover: band without a graph")
	}
	bn := b.G.N()
	if len(b.Orig) != bn {
		return fmt.Errorf("cover: %d Orig entries for %d band vertices", len(b.Orig), bn)
	}
	for li, ov := range b.Orig {
		if ov < -1 || int(ov) >= n {
			return fmt.Errorf("cover: band vertex %d maps to %d, outside [-1, %d)", li, ov, n)
		}
	}
	for name, mask := range map[string][]bool{
		"Allowed": b.Allowed, "S": b.S, "LowestLevelLocal": b.LowestLevelLocal,
	} {
		if mask != nil && len(mask) != bn {
			return fmt.Errorf("cover: %s mask has %d entries for %d band vertices", name, len(mask), bn)
		}
	}
	if b.Cluster < 0 || b.Level < 0 {
		return fmt.Errorf("cover: negative cluster %d or level %d", b.Cluster, b.Level)
	}
	return nil
}

// Equal reports whether two bands are bit-identical: same identity
// (cluster, level), same vertex mapping and marks, and the same band
// graph down to adjacency order (graph.Equal). Incremental invalidation
// reuses a band's tree decomposition across graph generations exactly
// when Equal holds, which makes the reuse indistinguishable from a fresh
// rebuild.
func (b *Band) Equal(o *Band) bool {
	if b == o {
		return true
	}
	if b == nil || o == nil {
		return false
	}
	return b.Cluster == o.Cluster && b.Level == o.Level &&
		slices.Equal(b.Orig, o.Orig) &&
		slices.Equal(b.Allowed, o.Allowed) &&
		slices.Equal(b.S, o.S) &&
		slices.Equal(b.LowestLevelLocal, o.LowestLevelLocal) &&
		graph.Equal(b.G, o.G)
}

// MemBytes returns the approximate heap footprint of the band in bytes:
// the band graph plus the Orig map and vertex marks.
func (b *Band) MemBytes() int64 {
	return b.G.MemBytes() + int64(cap(b.Orig))*4 +
		int64(cap(b.Allowed)+cap(b.S)+cap(b.LowestLevelLocal))
}

// Cover is the set of bands cut from one clustering.
type Cover struct {
	Bands []*Band
	// BFSRounds is the largest in-cluster BFS round count (depth proxy).
	BFSRounds int
}

// Params configures cover construction.
type Params struct {
	// K and D are the pattern size and pattern diameter; the clustering
	// parameter is beta = 2k and bands span d+1 levels.
	K, D int
	// Beta overrides the clustering parameter when positive (used by the
	// beta-ablation experiment).
	Beta float64
}

func (p Params) beta() float64 {
	if p.Beta > 0 {
		return p.Beta
	}
	return float64(2 * p.K)
}

// Build constructs a plain k-d cover of g (Theorem 2.4).
func Build(g *graph.Graph, p Params, rng *rand.Rand, tr *wd.Tracker) *Cover {
	return FromClustering(g, estc.Cluster(g, p.beta(), rng, tr), p, tr)
}

// FromClustering constructs the plain k-d cover induced by an existing
// clustering. It is the second half of Build, split out for callers that
// build the clustering themselves (core.ClusterRun picks the ESTC or the
// layered clustering of a run).
func FromClustering(g *graph.Graph, cl *estc.Clustering, p Params, tr *wd.Tracker) *Cover {
	return Cut(g, cl, nil, p, tr)
}

// SeparatingFromClustering constructs the Section 5.2.1 separating cover
// induced by an existing clustering: bands become minors carrying
// Allowed and S marks. s is the terminal mask over the original graph.
func SeparatingFromClustering(g *graph.Graph, cl *estc.Clustering, s []bool, p Params, tr *wd.Tracker) *Cover {
	return Cut(g, cl, s, p, tr)
}

// Cut constructs the cover induced by an existing clustering: the
// plain k-d cover when s is nil, else the separating cover for the
// terminal mask s. Both covers run the same in-cluster BFS and cut the
// same level windows; only the band construction differs.
func Cut(g *graph.Graph, cl *estc.Clustering, s []bool, p Params, tr *wd.Tracker) *Cover {
	c := &Cover{}
	members := clusterMembers(cl, g.N())
	// One level array serves every cluster's BFS: clusters are disjoint,
	// so the concurrent searches write disjoint entries, and a cluster
	// costs its own size, not n.
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	bandsPer := make([][]*Band, cl.NumClusters())
	rounds := make([]int, cl.NumClusters())
	par.ForGrain(0, cl.NumClusters(), 1, func(ci int) {
		bandsPer[ci], rounds[ci] = clusterBands(g, cl, int32(ci), members[ci], dist, s, p, tr)
	})
	for ci, bs := range bandsPer {
		c.Bands = append(c.Bands, bs...)
		if rounds[ci] > c.BFSRounds {
			c.BFSRounds = rounds[ci]
		}
	}
	return c
}

// clusterMembers groups vertex ids by cluster.
func clusterMembers(cl *estc.Clustering, n int) [][]int32 {
	members := make([][]int32, cl.NumClusters())
	for v := 0; v < n; v++ {
		o := cl.Owner[v]
		members[o] = append(members[o], int32(v))
	}
	return members
}

// clusterBands runs the in-cluster BFS, writing its levels into the
// shared dist, and cuts one band per window of d+1 levels holding at
// least k vertices: the induced subgraph when s is nil, else the
// separating minor.
func clusterBands(g *graph.Graph, cl *estc.Clustering, ci int32, member, dist []int32, s []bool, p Params, tr *wd.Tracker) ([]*Band, int) {
	res := bfs.Levels(g, []int32{cl.Center[ci]}, cl.Owner, dist, tr)
	// Bucket members by level.
	levels := make([][]int32, res.MaxLevel+1)
	for _, v := range member {
		levels[dist[v]] = append(levels[dist[v]], v)
	}
	var bands []*Band
	for i := 0; i <= res.MaxLevel; i++ {
		var verts []int32
		for l := i; l <= min(i+p.D, res.MaxLevel); l++ {
			verts = append(verts, levels[l]...)
		}
		// Skip bands that cannot contain a k-vertex pattern.
		if len(verts) < p.K {
			continue
		}
		// Bands are emitted for every level i (as in the paper), even when
		// deeper bands are subsets of earlier ones: the listing algorithm
		// attributes each occurrence to the band whose lowest level is the
		// occurrence's closest-to-root level, so the tail bands must exist.
		if s == nil {
			bands = append(bands, inducedBand(g, ci, int32(i), verts, len(levels[i])))
		} else {
			bands = append(bands, separatingBand(g, ci, int32(i), verts, s))
		}
	}
	return bands, res.Rounds
}

// inducedBand builds the plain band on verts, whose first nLowest
// vertices form its lowest BFS level.
func inducedBand(g *graph.Graph, ci, level int32, verts []int32, nLowest int) *Band {
	sub, orig := graph.Induce(g, verts)
	lowest := make([]bool, len(orig))
	for li := range nLowest {
		lowest[li] = true
	}
	return &Band{
		G:                sub,
		Orig:             orig,
		Cluster:          ci,
		Level:            level,
		LowestLevelLocal: lowest,
	}
}

// separatingBand builds the minor for one band: band vertices are
// singleton classes, and every other vertex of g is contracted per
// connected component of G[V \ band], labelled in place over the whole
// graph for each band.
func separatingBand(g *graph.Graph, ci, level int32, verts []int32, s []bool) *Band {
	inBand := make([]bool, g.N())
	for _, v := range verts {
		inBand[v] = true
	}
	// Classes: 0..len(verts)-1 = band vertices, then one per component
	// of the complement.
	class, numComp := graph.ComponentsWithout(g, inBand)
	numClasses := len(verts) + numComp
	orig := make([]int32, numClasses)
	allowed := make([]bool, numClasses)
	sMask := make([]bool, numClasses)
	for v, c := range class {
		if c < 0 {
			continue
		}
		class[v] = int32(len(verts)) + c
		if s[v] {
			sMask[class[v]] = true
		}
	}
	for li, v := range verts {
		class[v] = int32(li)
		orig[li] = v
		allowed[li] = true
		sMask[li] = s[v]
	}
	for c := len(verts); c < numClasses; c++ {
		orig[c] = -1
	}
	return &Band{
		G:       graph.ContractPartition(g, class, numClasses),
		Orig:    orig,
		Cluster: ci,
		Level:   level,
		Allowed: allowed,
		S:       sMask,
	}
}

// Multiplicity returns how many bands contain each original vertex
// (Theorem 2.4 bounds this by d+1 for plain covers).
func (c *Cover) Multiplicity(n int) []int {
	mult := make([]int, n)
	for _, b := range c.Bands {
		for _, ov := range b.Orig {
			if ov >= 0 {
				mult[ov]++
			}
		}
	}
	return mult
}

// TotalSize returns the sum of band sizes (Theorem 2.4: O(dn)).
func (c *Cover) TotalSize() int {
	total := 0
	for _, b := range c.Bands {
		total += b.G.N()
	}
	return total
}
