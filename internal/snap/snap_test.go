package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/graph"
)

// makeSnapshot builds a fully representative snapshot over an r-by-c
// grid target: a plain prepared cover and a separating cover.
func makeSnapshot(t testing.TB, r, c, k, d int) *Snapshot {
	t.Helper()
	g := graph.Grid(r, c)
	opt := core.Options{Seed: 7}
	plain := core.PrepareRun(g, k, d, 0, opt)
	mask := make([]bool, g.N())
	last := g.N() - 1
	mask[0], mask[last] = true, true
	sep := core.PrepareSeparatingRun(g, mask, k, d, 0, opt)
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
	// A v4 file carries a clustering section where this build reads the
	// plain covers.
	for _, v := range []uint32{4, Version + 1} {
		bad = bytes.Clone(data)
		binary.LittleEndian.PutUint32(bad[8:], v)
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrFormat) {
			t.Fatalf("version %d: got %v", v, err)
		}
	}
}

// A version 3 file is refused: its run-1 covers are ESTC covers, which
// this build would take for the exact layered run.
func TestRejectsVersion3(t *testing.T) {
	old := encode(t, testSnapshot(t))
	binary.LittleEndian.PutUint32(old[8:], 3)
	if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrFormat) {
		t.Fatalf("v3 header: got %v, want ErrFormat", err)
	}
}

// The options record carries PaperLoop, and a flag byte other than 0 or
// 1 is malformed.
func TestPaperLoopRoundTrip(t *testing.T) {
	for _, paper := range []bool{false, true} {
		s := &Snapshot{Options: core.Options{Seed: 3, MaxRuns: 5, PaperLoop: paper}, Graph: graph.Path(5)}
		data := encode(t, s)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got.Options != s.Options {
			t.Fatalf("options %+v, want %+v", got.Options, s.Options)
		}
		if again := encode(t, got); !bytes.Equal(again, data) {
			t.Fatal("save -> load -> save changed the bytes")
		}
	}
	// The flag ends the options record: name (4+0), pinned (1), seed
	// (8), engine, max runs, heuristic (4 each) and beta (8) precede it
	// in the meta payload, which follows the file and section headers.
	data := encode(t, &Snapshot{Options: core.Options{PaperLoop: true}, Graph: graph.Path(5)})
	const payload = 12 + 8
	const flag = payload + 4 + 1 + 8 + 4 + 4 + 4 + 8
	if data[flag] != 1 {
		t.Fatalf("byte %d = %d, want the paper-loop flag 1", flag, data[flag])
	}
	data[flag] = 2
	end := payload + int(binary.LittleEndian.Uint32(data[payload-4:]))
	binary.LittleEndian.PutUint32(data[end:], crc32.ChecksumIEEE(data[payload:end]))
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "paper-loop") {
		t.Fatalf("paper-loop flag 2: got %v, want ErrFormat", err)
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Options: core.Options{Seed: 3}, Graph: graph.Path(5)}
	got, err := Read(bytes.NewReader(encode(t, s)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Graph.N() != 5 || len(got.Plain)+len(got.Sep) != 0 {
		t.Fatalf("empty snapshot round trip mismatch: %+v", got)
	}
}
