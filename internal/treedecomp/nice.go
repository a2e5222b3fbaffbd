package treedecomp

import (
	"fmt"
	"sort"
)

// NodeKind labels the four node types of a nice tree decomposition.
type NodeKind uint8

const (
	// Leaf nodes have an empty bag and no children.
	Leaf NodeKind = iota
	// Introduce nodes add one vertex to their single child's bag.
	Introduce
	// Forget nodes remove one vertex from their single child's bag.
	Forget
	// Join nodes have two children with identical bags (equal to theirs).
	Join
)

func (k NodeKind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Introduce:
		return "introduce"
	case Forget:
		return "forget"
	case Join:
		return "join"
	}
	return "?"
}

// Nice is a nice tree decomposition: a binary decomposition tree whose
// nodes are leaves, introduces, forgets and joins. The root has an empty
// bag (everything is forgotten at the top), which makes the DP acceptance
// condition of Section 3 a single state lookup.
//
// This is the binary decomposition tree the paper's Section 3 machinery
// runs on: the unary chains (introduce/forget) are exactly the "paths" of
// Section 3.3.1, and the transitions that do not match a new pattern
// vertex are deterministic along them, giving the forest of Figure 5.
type Nice struct {
	Kind   []NodeKind
	Vertex []int32   // introduced/forgotten vertex, -1 otherwise
	Bag    [][]int32 // sorted ascending
	Left   []int32   // child (unary nodes use Left), -1 if none
	Right  []int32   // second child of joins, -1 otherwise
	Parent []int32
	Root   int32
	Order  []int32 // topological order, children before parents
	Width  int
}

// NumNodes returns the node count.
func (nd *Nice) NumNodes() int { return len(nd.Kind) }

// MemBytes returns the approximate heap footprint of the decomposition in
// bytes (cache accounting for the serving layer's memory budget).
func (nd *Nice) MemBytes() int64 {
	b := int64(cap(nd.Kind)) +
		4*int64(cap(nd.Vertex)+cap(nd.Left)+cap(nd.Right)+cap(nd.Parent)+cap(nd.Order))
	for _, bag := range nd.Bag {
		b += 4 * int64(cap(bag))
	}
	return b
}

// Slot returns the index of v in the sorted bag of node i, or -1.
func (nd *Nice) Slot(i int32, v int32) int {
	b := nd.Bag[i]
	j := sort.Search(len(b), func(j int) bool { return b[j] >= v })
	if j < len(b) && b[j] == v {
		return j
	}
	return -1
}

// niceBuilder accumulates nodes.
type niceBuilder struct {
	kind   []NodeKind
	vertex []int32
	bag    [][]int32
	left   []int32
	right  []int32
}

func (b *niceBuilder) add(k NodeKind, v int32, bag []int32, left, right int32) int32 {
	id := int32(len(b.kind))
	b.kind = append(b.kind, k)
	b.vertex = append(b.vertex, v)
	b.bag = append(b.bag, bag)
	b.left = append(b.left, left)
	b.right = append(b.right, right)
	return id
}

// chain builds the forget/introduce chain transforming bag `from` (top of
// subtree `below`) into bag `to`, returning the new top node. Both bags
// must be sorted.
func (b *niceBuilder) chain(below int32, from, to []int32) int32 {
	cur := below
	curBag := from
	// Forget vertices in from \ to.
	for _, v := range diffSorted(from, to) {
		curBag = removeSorted(curBag, v)
		cur = b.add(Forget, v, curBag, cur, -1)
	}
	// Introduce vertices in to \ from.
	for _, v := range diffSorted(to, from) {
		curBag = insertSorted(curBag, v)
		cur = b.add(Introduce, v, curBag, cur, -1)
	}
	return cur
}

// leafChain builds Leaf -> introduce* up to the given bag.
func (b *niceBuilder) leafChain(bag []int32) int32 {
	cur := b.add(Leaf, -1, []int32{}, -1, -1)
	curBag := []int32{}
	for _, v := range bag {
		curBag = insertSorted(curBag, v)
		cur = b.add(Introduce, v, curBag, cur, -1)
	}
	return cur
}

func diffSorted(a, bSet []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(bSet) || a[i] < bSet[j]:
			out = append(out, a[i])
			i++
		case a[i] == bSet[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

func removeSorted(a []int32, v int32) []int32 {
	out := make([]int32, 0, len(a)-1)
	for _, x := range a {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func insertSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	out := make([]int32, 0, len(a)+1)
	out = append(out, a[:i]...)
	out = append(out, v)
	out = append(out, a[i:]...)
	return out
}

// MakeNice converts a rooted tree decomposition into a nice one whose root
// bag is empty. The width is unchanged; the node count grows to O(n·w).
func MakeNice(d *Decomposition) *Nice {
	children := d.Children()
	b := &niceBuilder{}

	// Convert each original node bottom-up (explicit stack to avoid
	// recursion depth limits on path-like decompositions).
	type frame struct {
		node  int32
		stage int
	}
	top := make([]int32, d.NumNodes()) // top nice node of each subtree
	stack := []frame{{d.Root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		node := f.node
		if f.stage == 0 {
			f.stage = 1
			for _, c := range children[node] {
				stack = append(stack, frame{c, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
		bag := d.Bags[node]
		ch := children[node]
		switch len(ch) {
		case 0:
			top[node] = b.leafChain(bag)
		case 1:
			top[node] = b.chain(top[ch[0]], d.Bags[ch[0]], bag)
		default:
			// Adapt each child to this bag, then fold with joins.
			cur := b.chain(top[ch[0]], d.Bags[ch[0]], bag)
			for _, c := range ch[1:] {
				right := b.chain(top[c], d.Bags[c], bag)
				cur = b.add(Join, -1, bag, cur, right)
			}
			top[node] = cur
		}
	}
	// Forget the root bag down to empty.
	root := b.chain(top[d.Root], d.Bags[d.Root], []int32{})

	nd := &Nice{
		Kind:   b.kind,
		Vertex: b.vertex,
		Bag:    b.bag,
		Left:   b.left,
		Right:  b.right,
		Root:   root,
	}
	nd.Parent = make([]int32, nd.NumNodes())
	for i := range nd.Parent {
		nd.Parent[i] = -1
	}
	for i := 0; i < nd.NumNodes(); i++ {
		if nd.Left[i] >= 0 {
			nd.Parent[nd.Left[i]] = int32(i)
		}
		if nd.Right[i] >= 0 {
			nd.Parent[nd.Right[i]] = int32(i)
		}
	}
	// Builder emits children before parents, so identity is a topological
	// order already; record it explicitly for consumers.
	nd.Order = make([]int32, nd.NumNodes())
	for i := range nd.Order {
		nd.Order[i] = int32(i)
	}
	w := 0
	for _, bag := range nd.Bag {
		if len(bag) > w {
			w = len(bag)
		}
	}
	nd.Width = w - 1
	return nd
}

// CheckBounds validates the index ranges of a nice decomposition over an
// n-vertex graph: parallel arrays of equal length, kinds in range, child
// and parent links in [-1, NumNodes), a valid root, Order a permutation
// range, bag entries strictly ascending vertices of [0, n), and Width
// matching the widest bag. It is the cheap first gate for decompositions
// decoded from untrusted snapshots — after it passes, ValidateNice can
// check the kind-specific invariants without ever indexing out of
// bounds.
func (nd *Nice) CheckBounds(n int) error {
	nodes := len(nd.Kind)
	if nodes == 0 {
		return fmt.Errorf("treedecomp: empty nice decomposition")
	}
	if len(nd.Vertex) != nodes || len(nd.Bag) != nodes || len(nd.Left) != nodes ||
		len(nd.Right) != nodes || len(nd.Parent) != nodes || len(nd.Order) != nodes {
		return fmt.Errorf("treedecomp: parallel arrays disagree on node count")
	}
	if nd.Root < 0 || int(nd.Root) >= nodes {
		return fmt.Errorf("treedecomp: root %d outside [0, %d)", nd.Root, nodes)
	}
	width := 0
	for i := 0; i < nodes; i++ {
		if nd.Kind[i] > Join {
			return fmt.Errorf("treedecomp: node %d has unknown kind %d", i, nd.Kind[i])
		}
		if v := nd.Vertex[i]; v < -1 || int(v) >= n {
			return fmt.Errorf("treedecomp: node %d vertex %d outside [-1, %d)", i, v, n)
		}
		for _, link := range [3]int32{nd.Left[i], nd.Right[i], nd.Parent[i]} {
			if link < -1 || int(link) >= nodes {
				return fmt.Errorf("treedecomp: node %d link %d outside [-1, %d)", i, link, nodes)
			}
		}
		if o := nd.Order[i]; o < 0 || int(o) >= nodes {
			return fmt.Errorf("treedecomp: order entry %d outside [0, %d)", o, nodes)
		}
		bag := nd.Bag[i]
		if len(bag) > width {
			width = len(bag)
		}
		for j, v := range bag {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("treedecomp: node %d bag vertex %d outside [0, %d)", i, v, n)
			}
			if j > 0 && bag[j-1] >= v {
				return fmt.Errorf("treedecomp: node %d bag not strictly ascending", i)
			}
		}
	}
	if nd.Width != width-1 {
		return fmt.Errorf("treedecomp: declared width %d, widest bag implies %d", nd.Width, width-1)
	}
	return nil
}

// ValidateNice checks the structural invariants of a nice decomposition.
func ValidateNice(nd *Nice) error {
	n := nd.NumNodes()
	if n == 0 {
		return fmt.Errorf("empty nice decomposition")
	}
	if len(nd.Bag[nd.Root]) != 0 {
		return fmt.Errorf("root bag not empty")
	}
	for i := 0; i < n; i++ {
		bag := nd.Bag[i]
		for j := 1; j < len(bag); j++ {
			if bag[j-1] >= bag[j] {
				return fmt.Errorf("node %d: bag not sorted/unique", i)
			}
		}
		switch nd.Kind[i] {
		case Leaf:
			if len(bag) != 0 || nd.Left[i] >= 0 || nd.Right[i] >= 0 {
				return fmt.Errorf("node %d: malformed leaf", i)
			}
		case Introduce:
			c := nd.Left[i]
			if c < 0 || nd.Right[i] >= 0 {
				return fmt.Errorf("node %d: introduce needs one child", i)
			}
			want := insertSorted(nd.Bag[c], nd.Vertex[i])
			if !equalSlices(want, bag) || nd.Slot(c, nd.Vertex[i]) >= 0 {
				return fmt.Errorf("node %d: introduce bag mismatch", i)
			}
		case Forget:
			c := nd.Left[i]
			if c < 0 || nd.Right[i] >= 0 {
				return fmt.Errorf("node %d: forget needs one child", i)
			}
			want := removeSorted(nd.Bag[c], nd.Vertex[i])
			if !equalSlices(want, bag) || nd.Slot(c, nd.Vertex[i]) < 0 {
				return fmt.Errorf("node %d: forget bag mismatch", i)
			}
		case Join:
			l, r := nd.Left[i], nd.Right[i]
			if l < 0 || r < 0 {
				return fmt.Errorf("node %d: join needs two children", i)
			}
			if !equalSlices(nd.Bag[l], bag) || !equalSlices(nd.Bag[r], bag) {
				return fmt.Errorf("node %d: join bags differ", i)
			}
		}
	}
	// Topological order sanity: children precede parents.
	seen := make([]bool, n)
	for _, i := range nd.Order {
		if nd.Left[i] >= 0 && !seen[nd.Left[i]] {
			return fmt.Errorf("order violates child-before-parent at %d", i)
		}
		if nd.Right[i] >= 0 && !seen[nd.Right[i]] {
			return fmt.Errorf("order violates child-before-parent at %d", i)
		}
		seen[i] = true
	}
	return nil
}

func equalSlices(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
