// Package snap is the persistence subsystem: a versioned, endian-stable
// binary codec for the pipeline's reusable preprocessing artifacts —
// target graphs, k-d cover bands, nice tree decompositions and prepared
// covers — packaged as an Index snapshot that the batch-query engine can
// save and restore.
//
// The paper front-loads work into exactly these artifacts (the cover of
// Theorem 2.4, cut from the clustering of Lemma 2.3, and the band
// decompositions feeding Section 3's dynamic programs); planarsi.Index
// memoizes the covers in RAM, and this package makes them durable, so a
// restarted daemon warm-boots from disk instead of re-paying the
// O(d·n) preprocessing per pinned graph.
//
// # Format
//
// A snapshot is a fixed header followed by a strict sequence of
// sections:
//
//	header   8-byte magic "PLSISNAP", format version (uint32 LE)
//	section  tag (uint32 LE), payload length (uint32 LE),
//	         payload bytes, CRC-32/IEEE of the payload (uint32 LE)
//
// Sections appear in a fixed order (meta, graph, plain covers,
// separating covers, end) and every one is mandatory, so a
// truncated file always fails with an explicit error. All integers are
// little-endian regardless of host; float64s are stored as their IEEE
// bit patterns.
//
// # Decoding discipline
//
// Snapshots are read from disk paths an operator controls, but the
// decoder still treats them as untrusted input (the gio parser's
// discipline): every count is bounds-checked against the bytes actually
// present before allocating, section payloads are read incrementally so
// a lying length field cannot force a large allocation, CRC mismatches
// and trailing garbage are rejected, and every decoded artifact is
// revalidated (graph.FromCSR, treedecomp CheckBounds + ValidateNice,
// cover Band.Validate) so a hostile file can produce an
// error but never a panic, an out-of-bounds index or an unbounded
// allocation.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// magic identifies a planarsi snapshot file.
const magic = "PLSISNAP"

// Version is the current snapshot format version. Readers reject other
// versions outright: artifacts are cheap to rebuild relative to the risk
// of misinterpreting a foreign layout. Version 2 added the lifetime
// sweep counter to the meta section; version 3 added the edit-epoch
// counter, so a warm boot resumes an index's mutation history. Version
// 4 records Options.PaperLoop: cover index 1 is the layered cover on
// the default path and an ESTC cover under the paper loop, and a v3
// file's run-1 entries are ESTC covers this build would otherwise take
// for the exact layered run. Version 5 drops the clustering table and
// each cover's clustering reference: an Index memoizes covers only.
const Version uint32 = 5

// Section tags, in their mandatory file order.
const (
	tagMeta uint32 = iota + 1
	tagGraph
	tagPlain
	tagSep
	tagEnd
)

// maxSectionBytes caps a single section's declared payload length.
const maxSectionBytes = 1 << 30

// ErrFormat wraps every malformed-snapshot failure, so callers can
// distinguish a bad file from an I/O error with errors.Is.
var ErrFormat = errors.New("snap: malformed snapshot")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// enc accumulates one section's payload.
type enc struct {
	b []byte
}

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *enc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.i32(x)
	}
}

func (e *enc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

// bools writes an optional bool mask: a presence flag, then the length
// and the bit-packed values. nil and empty masks are distinguished
// (band semantics differ: a nil Allowed mask means "all allowed").
func (e *enc) bools(v []bool) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(len(v)))
	e.b = append(e.b, packBits(v)...)
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func packBits(v []bool) []byte {
	out := make([]byte, (len(v)+7)/8)
	for i, x := range v {
		if x {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// dec consumes one section's payload with a sticky error: after the
// first failure every further read returns zero values, and the caller
// checks err() once.
type dec struct {
	b   []byte
	e   error
	ctx string // section name for error messages
}

func (d *dec) fail(format string, args ...any) {
	if d.e == nil {
		d.e = formatErr("section %s: %s", d.ctx, fmt.Sprintf(format, args...))
	}
}

func (d *dec) take(n int) []byte {
	if d.e != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("need %d bytes, %d left", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads an element count and verifies that count*elemBytes more
// payload bytes actually exist before the caller allocates — the
// over-allocation guard for every slice in the format.
func (d *dec) count(elemBytes int) int {
	v := d.u32()
	if d.e != nil {
		return 0
	}
	if elemBytes > 0 && int64(v)*int64(elemBytes) > int64(len(d.b)) {
		d.fail("declared %d elements of %d bytes, only %d bytes left", v, elemBytes, len(d.b))
		return 0
	}
	return int(v)
}

func (d *dec) i32s() []int32 {
	n := d.count(4)
	if d.e != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if d.e != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *dec) bools() []bool {
	if d.u8() == 0 {
		return nil
	}
	n := d.u32()
	if d.e != nil {
		return nil
	}
	nb := (int64(n) + 7) / 8
	if nb > int64(len(d.b)) {
		d.fail("declared %d packed bools, only %d bytes left", n, len(d.b))
		return nil
	}
	raw := d.take(int(nb))
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<uint(i%8)) != 0
	}
	return out
}

func (d *dec) str() string {
	n := d.count(1)
	if d.e != nil {
		return ""
	}
	return string(d.take(n))
}

// done rejects trailing garbage after a section's last field.
func (d *dec) done() error {
	if d.e == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.e
}

// writeSection frames one section: tag, length, payload, CRC.
func writeSection(w io.Writer, tag uint32, payload []byte) error {
	if len(payload) > maxSectionBytes {
		return fmt.Errorf("snap: section %d payload %d exceeds %d bytes", tag, len(payload), maxSectionBytes)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// readSection reads the next section, which must carry wantTag, and
// returns its CRC-verified payload. The payload is read incrementally
// (bytes.Buffer growth tracks bytes actually present), so a header
// declaring a huge length against a short file fails with ErrFormat
// instead of allocating the declared size up front.
func readSection(r io.Reader, wantTag uint32, name string) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, formatErr("section %s: truncated header: %v", name, err)
	}
	tag := binary.LittleEndian.Uint32(hdr[0:])
	if tag != wantTag {
		return nil, formatErr("section %s: tag %d, want %d", name, tag, wantTag)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxSectionBytes {
		return nil, formatErr("section %s: payload %d exceeds %d bytes", name, n, maxSectionBytes)
	}
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, formatErr("section %s: payload truncated at %d of %d bytes", name, m, n)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, formatErr("section %s: truncated CRC: %v", name, err)
	}
	payload := buf.Bytes()
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return nil, formatErr("section %s: CRC mismatch (%08x != %08x)", name, got, want)
	}
	return payload, nil
}

func writeHeader(w io.Writer) error {
	var hdr [12]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	_, err := w.Write(hdr[:])
	return err
}

func readHeader(r io.Reader) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return formatErr("truncated file header: %v", err)
	}
	if string(hdr[:8]) != magic {
		return formatErr("bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != Version {
		return formatErr("format version %d, this build reads %d", v, Version)
	}
	return nil
}
