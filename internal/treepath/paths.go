package treepath

// Paths groups the nodes of a rooted tree (or forest) into vertex-disjoint
// paths, one per maximal run of equal layer numbers along parent edges,
// organized into layers per Lemma 3.2:
//
//   - every path lies entirely in one layer;
//   - a node's children are in the same or a smaller layer, and a child
//     off the node's path is in a strictly smaller one, so all paths of
//     layer i can be processed once layers < i are done;
//   - there are at most ⌊log₂ n⌋ + 1 layers.
//
// The paths are packed into one flat node buffer: path p is
// nodes[starts[p]:starts[p+1]], listed bottom-up, and paths are numbered
// in the order of their bottom nodes.
type Paths struct {
	nodes, starts []int32
	layers        []int32 // the per-node layer numbers Decompose read
}

// Decompose builds the path decomposition from a parent array and its
// layer numbers (from LayersSequential or LayersParallel).
func Decompose(parent []int32, layers []int32) *Paths {
	n := len(parent)
	// A node is a path bottom iff no child shares its layer.
	hasEqChild := make([]bool, n)
	for v, p := range parent {
		if p >= 0 && layers[p] == layers[v] {
			hasEqChild[p] = true
		}
	}
	ps := &Paths{nodes: make([]int32, 0, n), starts: []int32{0}, layers: layers}
	for v := 0; v < n; v++ {
		if hasEqChild[v] {
			continue
		}
		u := int32(v)
		for {
			ps.nodes = append(ps.nodes, u)
			p := parent[u]
			if p < 0 || layers[p] != layers[u] {
				break
			}
			u = p
		}
		ps.starts = append(ps.starts, int32(len(ps.nodes)))
	}
	return ps
}

// Len returns the number of paths.
func (ps *Paths) Len() int { return len(ps.starts) - 1 }

// Path returns path p bottom-up (Path(p)[0] is its lowest node). The
// slice aliases the decomposition's buffer.
func (ps *Paths) Path(p int) []int32 { return ps.nodes[ps.starts[p]:ps.starts[p+1]] }

// Layer returns the layer of path p.
func (ps *Paths) Layer(p int) int32 { return ps.layers[ps.nodes[ps.starts[p]]] }

// ByLayer returns path ids grouped by layer, in increasing layer order:
// the processing schedule of Section 3.3.1 (all paths of one layer are
// independent and run in parallel). Its length is the number of layers.
func (ps *Paths) ByLayer() [][]int32 {
	var out [][]int32
	for p := 0; p < ps.Len(); p++ {
		l := int(ps.Layer(p))
		for len(out) <= l {
			out = append(out, nil)
		}
		out[l] = append(out[l], int32(p))
	}
	return out
}
