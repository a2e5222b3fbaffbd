package snap

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot reader: it
// must either decode cleanly or return an error — never panic, and
// never allocate disproportionately to the input (the decoder's
// count-vs-remaining-bytes guards). Inputs that do decode must
// round-trip: re-encoding and re-decoding yields the same snapshot,
// the property the Index's save/load equivalence rests on.
func FuzzDecodeSnapshot(f *testing.F) {
	full := encode(f, makeSnapshot(f, 3, 3, 3, 1))
	f.Add(full)
	f.Add(full[:12])          // header only
	f.Add(full[:len(full)/2]) // mid-file truncation
	f.Add([]byte("PLSISNAP")) // magic, no version
	f.Add([]byte{})           // empty
	empty := &Snapshot{Options: testSnapshot(f).Options, Graph: testSnapshot(f).Graph}
	var buf bytes.Buffer
	if err := Write(&buf, empty); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		s2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if s.Name != s2.Name || s.Queries != s2.Queries || s.Sweeps != s2.Sweeps || !s.Options.SameConfig(s2.Options) ||
			!reflect.DeepEqual(s.Graph, s2.Graph) ||
			len(s.Plain) != len(s2.Plain) || len(s.Sep) != len(s2.Sep) {
			t.Fatalf("round trip through re-encode changed the snapshot")
		}
	})
}
