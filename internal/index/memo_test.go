package index

import (
	"errors"
	"testing"
	"time"

	"planarsi/internal/core"
	"planarsi/internal/graph"
)

// entriesOf lists m's completed entries.
func entriesOf(m *memo) (es []memoEntry) {
	m.each(func(e memoEntry) { es = append(es, e) })
	return es
}

// TestMemoTablePanickedBuild covers the memo table's failure path: a
// goroutine waiting on a build that panics gets an error (through its
// own Guard) rather than a zero value, the panicked cell is dropped, and
// the next get rebuilds the value and publishes its bytes.
func TestMemoTablePanickedBuild(t *testing.T) {
	var ctr memoCounters
	m := newMemo(&ctr)
	key := coverKey{k: 3, d: 2}
	pc := core.PrepareRun(graph.Grid(3, 3), 3, 2, 0, core.Options{})

	started, release := make(chan struct{}), make(chan struct{})
	builder, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		builder <- Guard(func() error {
			m.get(key, func() *core.PreparedCover {
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
			m.get(key, func() *core.PreparedCover {
				t.Error("a waiter ran a second build")
				return nil
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

	if v := m.get(key, func() *core.PreparedCover { return pc }); v != pc {
		t.Fatalf("rebuild returned %p, want %p", v, pc)
	}
	if es := entriesOf(m); len(es) != 1 || es[0].bytes != pc.MemBytes() || es[0].bytes == 0 {
		t.Fatalf("after rebuild: entries %+v; want one of %d bytes", es, pc.MemBytes())
	}
	if v := m.get(key, func() *core.PreparedCover { t.Error("a completed entry was rebuilt"); return nil }); v != pc {
		t.Fatalf("hit returned %p, want %p", v, pc)
	}
	if h, mi := ctr.hits.Load(), ctr.misses.Load(); h != 1 || mi != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", h, mi)
	}
	if m.put(key, &core.PreparedCover{}, 9) {
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
	if st := warm.Stats(); st.PlainCovers == 0 {
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
