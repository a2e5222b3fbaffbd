package index

import (
	"errors"
	"testing"
	"time"

	"planarsi/internal/core"
)

// sized is a test artifact whose footprint is its value.
type sized int64

func (s sized) MemBytes() int64 { return int64(s) }

// entriesOf lists m's completed entries.
func entriesOf[K comparable, V artifact](m *memo[K, V]) (es []memoEntry[K, V]) {
	m.each(func(e memoEntry[K, V]) { es = append(es, e) })
	return es
}

// TestMemoTablePanickedBuild covers the memo table's failure path: a
// goroutine waiting on a build that panics gets an error (through its
// own Guard) rather than a zero value, the panicked cell is dropped, and
// the next get rebuilds the value and publishes its bytes.
func TestMemoTablePanickedBuild(t *testing.T) {
	var ctr memoCounters
	m := newMemo[int, sized](&ctr)

	started, release := make(chan struct{}), make(chan struct{})
	builder, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		builder <- Guard(func() error {
			m.get(1, func() sized {
				close(started)
				<-release
				panic("build failed")
			})
			return nil
		})
	}()
	<-started
	go func() {
		waiter <- Guard(func() error {
			m.get(1, func() sized {
				t.Error("a waiter ran a second build")
				return 0
			})
			return nil
		})
	}()
	// The waiter's miss is charged once it holds the cell under
	// construction; only then may the build fail.
	for deadline := time.Now().Add(10 * time.Second); ctr.misses.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never reached the cell under construction")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var qp *QueryPanicError
	if err := <-builder; !errors.As(err, &qp) || qp.Value != "build failed" {
		t.Fatalf("builder: err = %v, want its own panic", err)
	}
	if err := <-waiter; !errors.As(err, &qp) || qp.Value != errBuildPanicked {
		t.Fatalf("waiter: err = %v, want %v", err, errBuildPanicked)
	}
	if es := entriesOf(m); len(es) != 0 {
		t.Fatalf("panicked build left entries %+v", es)
	}

	if v := m.get(1, func() sized { return 7 }); v != 7 {
		t.Fatalf("rebuild returned %d, want 7", v)
	}
	if es := entriesOf(m); len(es) != 1 || es[0].bytes != 7 {
		t.Fatalf("after rebuild: entries %+v; want one of 7 bytes", es)
	}
	if v := m.get(1, func() sized { t.Error("a completed entry was rebuilt"); return 0 }); v != 7 {
		t.Fatalf("hit returned %d, want 7", v)
	}
	if h, mi := ctr.hits.Load(), ctr.misses.Load(); h != 1 || mi != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", h, mi)
	}
	if m.put(1, 9, 9) {
		t.Fatal("put replaced a present key")
	}
}

// TestStatsWalkInPlace pins that Stats and MemoStats read the memo tables
// without copying them: a warm Index, holding dozens of artifacts, costs
// them no more allocations than an empty one. The serving layer's memory
// maintenance calls Stats on every Index after every batch.
func TestStatsWalkInPlace(t *testing.T) {
	g := editBase(8, 8)
	cold, warm := New(g, core.Options{Seed: 5}), New(g, core.Options{Seed: 5})
	warm.Prewarm(4, 2)
	warm.Prewarm(3, 1)
	if st := warm.Stats(); st.PlainCovers == 0 || st.Clusterings == 0 {
		t.Fatalf("warm Index holds nothing: %+v", st)
	}
	for name, read := range map[string]func(*Index){
		"Stats":     func(ix *Index) { ix.Stats() },
		"MemoStats": func(ix *Index) { ix.MemoStats() },
	} {
		c := testing.AllocsPerRun(20, func() { read(cold) })
		w := testing.AllocsPerRun(20, func() { read(warm) })
		if w > c {
			t.Errorf("%s: %v allocations on a warm Index, %v on an empty one", name, w, c)
		}
	}
}
