package snap

import (
	"fmt"
	"io"
	"math"

	"planarsi/internal/core"
	"planarsi/internal/cover"
	"planarsi/internal/estc"
	"planarsi/internal/graph"
	"planarsi/internal/match"
	"planarsi/internal/treedecomp"
)

// ClusterArtifact is one memoized ESTC clustering with its cache key
// ((beta bits, run) — the Index's clusterKey) and its accounted
// footprint. Bytes is carried verbatim so a restored Index reports
// byte-identical Stats to the one that saved it.
type ClusterArtifact struct {
	BetaBits uint64
	Run      int
	Bytes    int64
	C        *estc.Clustering
}

// CoverArtifact is one memoized prepared cover with its cache key. Mask
// is the packed terminal set of separating covers (the Index's sepKey
// string) and empty for plain covers.
type CoverArtifact struct {
	K, D, Run int
	Bytes     int64
	Mask      string
	PC        *core.PreparedCover
}

// Snapshot is the decoded form of a snapshot file: a target graph, the
// pipeline configuration its artifacts were built under, and the
// memoized artifact tables of an Index. Name and Pinned carry the
// serving layer's registry identity (empty/false for bare Index
// snapshots). Every artifact a Read returns has been revalidated, and
// every clustering referenced by a cover is resolved to a shared
// pointer, exactly as in the live Index that saved it.
type Snapshot struct {
	Name    string
	Pinned  bool
	Options core.Options
	Queries uint64
	Sweeps  uint64
	// Epoch is the Index's edit-generation counter at save time, so a
	// warm boot resumes the mutation history where the saved process
	// left it (format v3).
	Epoch uint64
	Graph *graph.Graph

	Clusters []ClusterArtifact
	Plain    []CoverArtifact
	Sep      []CoverArtifact
}

func encodeGraph(e *enc, g *graph.Graph) {
	off, adj, embedded, x, y := g.RawCSR()
	e.i32s(off)
	e.i32s(adj)
	var flags byte
	if embedded {
		flags |= 1
	}
	if x != nil {
		flags |= 2
	}
	e.u8(flags)
	if x != nil {
		e.f64s(x)
		e.f64s(y)
	}
}

func decodeGraph(d *dec) *graph.Graph {
	off := d.i32s()
	adj := d.i32s()
	flags := d.u8()
	var x, y []float64
	if flags&2 != 0 {
		x = d.f64s()
		y = d.f64s()
	}
	if d.e != nil {
		return nil
	}
	if flags&^byte(3) != 0 {
		d.fail("unknown graph flags %#x", flags)
		return nil
	}
	g, err := graph.FromCSR(off, adj, flags&1 != 0, x, y)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	return g
}

func encodeClustering(e *enc, c *estc.Clustering) {
	e.i32s(c.Owner)
	e.i32s(c.Center)
	e.u32(uint32(c.Rounds))
}

func decodeClustering(d *dec, n int) *estc.Clustering {
	c := &estc.Clustering{Owner: d.i32s(), Center: d.i32s(), Rounds: int(d.u32())}
	if d.e != nil {
		return nil
	}
	// The wire Owner of an empty clustering decodes as a non-nil empty
	// slice; normalize to the in-memory form estc.Cluster builds.
	if len(c.Owner) == 0 {
		c.Owner = nil
	}
	if len(c.Center) == 0 {
		c.Center = nil
	}
	if err := c.Validate(n); err != nil {
		d.fail("%v", err)
		return nil
	}
	return c
}

func encodeNice(e *enc, nd *treedecomp.Nice) {
	e.u32(uint32(len(nd.Kind)))
	for _, k := range nd.Kind {
		e.u8(byte(k))
	}
	e.i32s(nd.Vertex)
	e.u32(uint32(len(nd.Bag)))
	for _, bag := range nd.Bag {
		e.i32s(bag)
	}
	e.i32s(nd.Left)
	e.i32s(nd.Right)
	e.i32s(nd.Parent)
	e.i32(nd.Root)
	e.i32s(nd.Order)
	e.i32(int32(nd.Width))
}

func decodeNice(d *dec, n int) *treedecomp.Nice {
	nodes := d.count(1)
	if d.e != nil {
		return nil
	}
	kinds := make([]treedecomp.NodeKind, nodes)
	raw := d.take(nodes)
	for i := range kinds {
		kinds[i] = treedecomp.NodeKind(raw[i])
	}
	nd := &treedecomp.Nice{Kind: kinds, Vertex: d.i32s()}
	bags := d.count(4)
	if d.e != nil {
		return nil
	}
	nd.Bag = make([][]int32, bags)
	for i := range nd.Bag {
		nd.Bag[i] = d.i32s()
	}
	nd.Left = d.i32s()
	nd.Right = d.i32s()
	nd.Parent = d.i32s()
	nd.Root = d.i32()
	nd.Order = d.i32s()
	nd.Width = int(d.i32())
	if d.e != nil {
		return nil
	}
	if err := nd.CheckBounds(n); err != nil {
		d.fail("%v", err)
		return nil
	}
	if err := treedecomp.ValidateNice(nd); err != nil {
		d.fail("%v", err)
		return nil
	}
	return nd
}

func encodeBand(e *enc, b *cover.Band) {
	encodeGraph(e, b.G)
	e.i32s(b.Orig)
	e.i32(b.Cluster)
	e.i32(b.Level)
	e.bools(b.Allowed)
	e.bools(b.S)
	e.bools(b.LowestLevelLocal)
}

func decodeBand(d *dec, targetN int) *cover.Band {
	b := &cover.Band{
		G:       decodeGraph(d),
		Orig:    d.i32s(),
		Cluster: d.i32(),
		Level:   d.i32(),
	}
	b.Allowed = d.bools()
	b.S = d.bools()
	b.LowestLevelLocal = d.bools()
	if d.e != nil {
		return nil
	}
	if err := b.Validate(targetN); err != nil {
		d.fail("%v", err)
		return nil
	}
	return b
}

const (
	pbFallback byte = 1 << iota
	pbHasND
)

func encodePreparedBand(e *enc, pb *core.PreparedBand) error {
	if pb.Band == nil {
		return fmt.Errorf("snap: prepared band without a cover band (cancelled prepare leaked into a cache)")
	}
	var flags byte
	if pb.Fallback {
		flags |= pbFallback
	}
	if pb.ND != nil {
		flags |= pbHasND
	}
	e.u8(flags)
	encodeBand(e, pb.Band)
	if pb.ND != nil {
		encodeNice(e, pb.ND)
	}
	e.i32(int32(pb.Width))
	return nil
}

func decodePreparedBand(d *dec, targetN int) core.PreparedBand {
	flags := d.u8()
	pb := core.PreparedBand{
		Band:     decodeBand(d, targetN),
		Fallback: flags&pbFallback != 0,
	}
	if flags&pbHasND != 0 {
		if pb.Band != nil {
			pb.ND = decodeNice(d, pb.Band.G.N())
		}
	}
	pb.Width = int(d.i32())
	if d.e != nil {
		return core.PreparedBand{}
	}
	if flags&^(pbFallback|pbHasND) != 0 {
		d.fail("unknown prepared-band flags %#x", flags)
		return core.PreparedBand{}
	}
	// The engines dispatch on exactly this invariant: a band either
	// carries a decomposition the DP can run (bag fits the engine) or is
	// marked for the naive fallback. Anything else would panic mid-query.
	if pb.Fallback == (pb.ND != nil) {
		d.fail("prepared band must have a decomposition XOR the fallback mark")
		return core.PreparedBand{}
	}
	if pb.ND != nil && pb.ND.Width+1 > match.MaxBag {
		d.fail("band decomposition width %d exceeds engine capacity %d", pb.ND.Width, match.MaxBag-1)
		return core.PreparedBand{}
	}
	return pb
}

// encodePreparedCover writes a prepared cover. The clustering is not
// embedded: clusterRef indexes the snapshot's shared clustering table
// (-1 followed by an inline clustering covers the off-table case), so
// the clustering shared by many covers is stored once, mirroring the
// pointer sharing of the live Index.
func encodePreparedCover(e *enc, pc *core.PreparedCover, refs map[*estc.Clustering]int32) error {
	if pc.Clustering == nil {
		return fmt.Errorf("snap: prepared cover without a clustering")
	}
	ref, ok := refs[pc.Clustering]
	if !ok {
		ref = -1
	}
	e.i32(ref)
	if ref < 0 {
		encodeClustering(e, pc.Clustering)
	}
	e.u32(uint32(len(pc.Bands)))
	for i := range pc.Bands {
		if err := encodePreparedBand(e, &pc.Bands[i]); err != nil {
			return err
		}
	}
	e.u32(uint32(pc.BFSRounds))
	return nil
}

func decodePreparedCover(d *dec, targetN int, clusters []ClusterArtifact) *core.PreparedCover {
	ref := d.i32()
	var cl *estc.Clustering
	switch {
	case d.e != nil:
		return nil
	case ref >= 0:
		if int(ref) >= len(clusters) {
			d.fail("clustering ref %d outside table of %d", ref, len(clusters))
			return nil
		}
		cl = clusters[ref].C
	case ref == -1:
		cl = decodeClustering(d, targetN)
	default:
		d.fail("negative clustering ref %d", ref)
		return nil
	}
	// A minimal encoded prepared band (flags, one-vertex graph, Orig,
	// cluster/level, mask flags, width) occupies well over 16 payload
	// bytes, so this bounds the band count by the bytes actually
	// present; the slice then grows with the decoded data rather than
	// being pre-reserved against a declared count.
	nb := d.count(16)
	if d.e != nil {
		return nil
	}
	pc := &core.PreparedCover{Clustering: cl}
	for i := 0; i < nb; i++ {
		pb := decodePreparedBand(d, targetN)
		if d.e != nil {
			return nil
		}
		pc.Bands = append(pc.Bands, pb)
	}
	pc.BFSRounds = int(d.u32())
	if d.e != nil {
		return nil
	}
	return pc
}

func encodeOptions(e *enc, o core.Options) {
	e.u64(o.Seed)
	e.i32(int32(o.Engine))
	e.i32(int32(o.MaxRuns))
	e.i32(int32(o.Heuristic))
	e.f64(o.Beta)
}

func decodeOptions(d *dec) core.Options {
	o := core.Options{
		Seed:      d.u64(),
		Engine:    core.Engine(d.i32()),
		MaxRuns:   int(d.i32()),
		Heuristic: treedecomp.Heuristic(d.i32()),
		Beta:      d.f64(),
	}
	if d.e != nil {
		return core.Options{}
	}
	if o.Engine < core.EngineAuto || o.Engine > core.EnginePathDAG {
		d.fail("unknown engine %d", o.Engine)
	}
	if o.Heuristic < treedecomp.MinDegree || o.Heuristic > treedecomp.MinFill {
		d.fail("unknown heuristic %d", o.Heuristic)
	}
	if o.MaxRuns < 0 {
		d.fail("negative MaxRuns %d", o.MaxRuns)
	}
	if math.IsNaN(o.Beta) || o.Beta < 0 {
		d.fail("invalid beta %v", o.Beta)
	}
	return o
}

// Write serializes a snapshot. Artifact lists are written in the order
// given; callers that want byte-stable output (the Index does) sort
// them by key first.
func Write(w io.Writer, s *Snapshot) error {
	if s.Graph == nil {
		return fmt.Errorf("snap: snapshot without a target graph")
	}
	if err := writeHeader(w); err != nil {
		return err
	}

	var e enc
	e.str(s.Name)
	if s.Pinned {
		e.u8(1)
	} else {
		e.u8(0)
	}
	encodeOptions(&e, s.Options)
	e.u64(s.Queries)
	e.u64(s.Sweeps)
	e.u64(s.Epoch)
	if err := writeSection(w, tagMeta, e.b); err != nil {
		return err
	}

	e = enc{}
	encodeGraph(&e, s.Graph)
	if err := writeSection(w, tagGraph, e.b); err != nil {
		return err
	}

	e = enc{}
	refs := make(map[*estc.Clustering]int32, len(s.Clusters))
	e.u32(uint32(len(s.Clusters)))
	for i, ca := range s.Clusters {
		e.u64(ca.BetaBits)
		e.i32(int32(ca.Run))
		e.i64(ca.Bytes)
		encodeClustering(&e, ca.C)
		refs[ca.C] = int32(i)
	}
	if err := writeSection(w, tagClusters, e.b); err != nil {
		return err
	}

	for _, sec := range []struct {
		tag  uint32
		list []CoverArtifact
		sep  bool
	}{{tagPlain, s.Plain, false}, {tagSep, s.Sep, true}} {
		e = enc{}
		e.u32(uint32(len(sec.list)))
		for _, ca := range sec.list {
			e.i32(int32(ca.K))
			e.i32(int32(ca.D))
			e.i32(int32(ca.Run))
			e.i64(ca.Bytes)
			if sec.sep {
				e.str(ca.Mask)
			}
			if err := encodePreparedCover(&e, ca.PC, refs); err != nil {
				return err
			}
		}
		if err := writeSection(w, sec.tag, e.b); err != nil {
			return err
		}
	}

	return writeSection(w, tagEnd, nil)
}

// Read decodes and revalidates a snapshot. Any structural problem —
// truncation, a CRC mismatch, an out-of-range index, an artifact
// violating the pipeline's invariants — fails with an error wrapping
// ErrFormat; decoding never panics and never allocates more than a
// small factor of the bytes actually read.
func Read(r io.Reader) (*Snapshot, error) {
	if err := readHeader(r); err != nil {
		return nil, err
	}
	s := &Snapshot{}

	payload, err := readSection(r, tagMeta, "meta")
	if err != nil {
		return nil, err
	}
	d := &dec{b: payload, ctx: "meta"}
	s.Name = d.str()
	pinned := d.u8()
	s.Options = decodeOptions(d)
	s.Queries = d.u64()
	s.Sweeps = d.u64()
	s.Epoch = d.u64()
	if pinned > 1 {
		d.fail("bad pinned flag %d", pinned)
	}
	s.Pinned = pinned == 1
	if err := d.done(); err != nil {
		return nil, err
	}

	if payload, err = readSection(r, tagGraph, "graph"); err != nil {
		return nil, err
	}
	d = &dec{b: payload, ctx: "graph"}
	s.Graph = decodeGraph(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	n := s.Graph.N()

	if payload, err = readSection(r, tagClusters, "clusters"); err != nil {
		return nil, err
	}
	d = &dec{b: payload, ctx: "clusters"}
	nc := d.count(1)
	for i := 0; i < nc && d.e == nil; i++ {
		ca := ClusterArtifact{
			BetaBits: d.u64(),
			Run:      int(d.i32()),
			Bytes:    d.i64(),
		}
		ca.C = decodeClustering(d, n)
		if d.e != nil {
			break
		}
		if beta := math.Float64frombits(ca.BetaBits); math.IsNaN(beta) || math.IsInf(beta, 0) || beta <= 0 {
			d.fail("clustering %d: invalid beta key %v", i, beta)
			break
		}
		if ca.Run < 0 || ca.Bytes < 0 {
			d.fail("clustering %d: negative run %d or bytes %d", i, ca.Run, ca.Bytes)
			break
		}
		s.Clusters = append(s.Clusters, ca)
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	for _, sec := range []struct {
		tag  uint32
		name string
		sep  bool
		dst  *[]CoverArtifact
	}{{tagPlain, "plain", false, &s.Plain}, {tagSep, "sep", true, &s.Sep}} {
		if payload, err = readSection(r, sec.tag, sec.name); err != nil {
			return nil, err
		}
		d = &dec{b: payload, ctx: sec.name}
		ncov := d.count(1)
		for i := 0; i < ncov && d.e == nil; i++ {
			ca := CoverArtifact{
				K:     int(d.i32()),
				D:     int(d.i32()),
				Run:   int(d.i32()),
				Bytes: d.i64(),
			}
			if sec.sep {
				ca.Mask = d.str()
			}
			ca.PC = decodePreparedCover(d, n, s.Clusters)
			if d.e != nil {
				break
			}
			if ca.K < 0 || ca.D < 0 || ca.Run < 0 || ca.Bytes < 0 {
				d.fail("cover %d: negative key field", i)
				break
			}
			if sec.sep && len(ca.Mask) != (n+7)/8 {
				d.fail("cover %d: terminal mask holds %d bytes, want %d", i, len(ca.Mask), (n+7)/8)
				break
			}
			*sec.dst = append(*sec.dst, ca)
		}
		if err := d.done(); err != nil {
			return nil, err
		}
	}

	if payload, err = readSection(r, tagEnd, "end"); err != nil {
		return nil, err
	}
	if len(payload) != 0 {
		return nil, formatErr("section end: nonempty payload")
	}
	return s, nil
}
