package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
)

// makeSnapshot builds a fully representative snapshot over an r-by-c
// grid target: one shared clustering, a plain prepared cover
// referencing it, and a separating cover.
func makeSnapshot(t testing.TB, r, c, k, d int) *Snapshot {
	t.Helper()
	g := graph.Grid(r, c)
	opt := core.Options{Seed: 7}
	beta := core.CoverBeta(k, opt)
	cl := core.ClusterRun(g, beta, 0, opt)
	plain, _, _ := core.PrepareFromClustering(g, cl, nil, nil, k, d, opt)
	mask := make([]bool, g.N())
	last := g.N() - 1
	mask[0], mask[last] = true, true
	sep, _, _ := core.PrepareFromClustering(g, cl, mask, nil, k, d, opt)
	packed := make([]byte, (g.N()+7)/8)
	packed[0] |= 1
	packed[last/8] |= 1 << (last % 8)

	return &Snapshot{
		Name:    "grid",
		Pinned:  true,
		Options: opt,
		Queries: 42,
		Sweeps:  17,
		Graph:   g,
		Clusters: []ClusterArtifact{{
			BetaBits: math.Float64bits(beta), Run: 0, Bytes: cl.MemBytes(), C: cl,
		}},
		Plain: []CoverArtifact{{
			K: k, D: d, Run: 0, Bytes: plain.MemBytes(), PC: plain,
		}},
		Sep: []CoverArtifact{{
			K: k, D: d, Run: 0, Bytes: sep.MemBytes(), Mask: string(packed), PC: sep,
		}},
	}
}

// testSnapshot is the default fixture for round-trip tests.
func testSnapshot(t testing.TB) *Snapshot { return makeSnapshot(t, 4, 4, 4, 2) }

// tinySnapshot keeps the exhaustive per-byte corruption sweeps fast.
func tinySnapshot(t testing.TB) *Snapshot { return makeSnapshot(t, 3, 3, 3, 1) }

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	data := encode(t, s)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != s.Name || got.Pinned != s.Pinned || got.Queries != s.Queries || got.Sweeps != s.Sweeps {
		t.Errorf("identity fields differ: %q/%v/%d/%d", got.Name, got.Pinned, got.Queries, got.Sweeps)
	}
	if !got.Options.SameConfig(s.Options) {
		t.Errorf("options differ: %+v vs %+v", got.Options, s.Options)
	}
	if !reflect.DeepEqual(got.Graph, s.Graph) {
		t.Errorf("graph differs after round trip")
	}
	if !reflect.DeepEqual(got.Clusters, s.Clusters) {
		t.Errorf("clusterings differ after round trip")
	}
	// Covers hold pointer-rich structures; compare by deep value.
	if len(got.Plain) != 1 || !reflect.DeepEqual(got.Plain[0].PC.Bands, s.Plain[0].PC.Bands) {
		t.Errorf("plain cover differs after round trip")
	}
	if len(got.Sep) != 1 || !reflect.DeepEqual(got.Sep[0].PC.Bands, s.Sep[0].PC.Bands) {
		t.Errorf("separating cover differs after round trip")
	}
	if got.Sep[0].Mask != s.Sep[0].Mask {
		t.Errorf("terminal mask differs after round trip")
	}
	// The cover's clustering must be restored as a pointer into the
	// shared table, exactly like the live Index's sharing.
	if got.Plain[0].PC.Clustering != got.Clusters[0].C {
		t.Errorf("plain cover does not share the table clustering")
	}
	if got.Plain[0].PC.BFSRounds != s.Plain[0].PC.BFSRounds {
		t.Errorf("BFSRounds differ after round trip")
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	s := testSnapshot(t)
	a := encode(t, s)
	// Decode and re-encode: byte-identical output.
	got, err := Read(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	b := encode(t, got)
	if !bytes.Equal(a, b) {
		t.Fatalf("save -> load -> save is not byte-stable (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRejectsBitFlips flips every byte of a valid snapshot in turn;
// each corrupted file must fail with ErrFormat (the magic, version,
// section framing, CRCs and validators together leave no byte that can
// change silently) and must never panic.
func TestRejectsBitFlips(t *testing.T) {
	data := encode(t, tinySnapshot(t))
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0xFF
		s, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("byte %d/%d flipped: decode unexpectedly succeeded (%+v)", i, len(data), s.Name)
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("byte %d flipped: error %v does not wrap ErrFormat", i, err)
		}
	}
}

// TestRejectsTruncation cuts the file at every length; every prefix
// must be rejected cleanly.
func TestRejectsTruncation(t *testing.T) {
	data := encode(t, tinySnapshot(t))
	for i := 0; i < len(data); i++ {
		if _, err := Read(bytes.NewReader(data[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes unexpectedly decoded", i, len(data))
		}
	}
	// Trailing garbage after a complete snapshot is tolerated (the
	// reader consumes exactly the snapshot), which keeps the format
	// streamable; assert the full file still decodes.
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("full file failed to decode: %v", err)
	}
}

// TestRejectsHugeDeclaredSection checks the over-allocation guard: a
// header declaring a section far larger than the file must fail
// without attempting the declared allocation.
func TestRejectsHugeDeclaredSection(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHeader(&buf); err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], tagMeta)
	binary.LittleEndian.PutUint32(hdr[4:], maxSectionBytes) // 1 GiB claimed, 0 present
	buf.Write(hdr[:])
	if _, err := Read(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
	// Over the cap entirely.
	binary.LittleEndian.PutUint32(hdr[4:], maxSectionBytes+1)
	var buf2 bytes.Buffer
	_ = writeHeader(&buf2)
	buf2.Write(hdr[:])
	if _, err := Read(bytes.NewReader(buf2.Bytes())); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

func TestRejectsWrongMagicAndVersion(t *testing.T) {
	data := encode(t, testSnapshot(t))
	bad := bytes.Clone(data)
	copy(bad, "NOTASNAP")
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: got %v", err)
	}
	bad = bytes.Clone(data)
	binary.LittleEndian.PutUint32(bad[8:], Version+1)
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
		t.Fatalf("future version: got %v", err)
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Options: core.Options{Seed: 3}, Graph: graph.Path(5)}
	got, err := Read(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Graph.N() != 5 || len(got.Clusters)+len(got.Plain)+len(got.Sep) != 0 {
		t.Fatalf("empty snapshot round trip mismatch: %+v", got)
	}
}
