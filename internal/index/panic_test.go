package index

import (
	"context"
	"errors"
	"strings"
	"testing"

	"planarsi/internal/core"
	"planarsi/internal/fault"
	"planarsi/internal/graph"
	"planarsi/internal/par"
)

func TestGuardConvertsPanics(t *testing.T) {
	if err := Guard(func() error { return nil }); err != nil {
		t.Fatalf("clean body: %v", err)
	}
	err := Guard(func() error { panic("raw") })
	var qp *QueryPanicError
	if !errors.As(err, &qp) || !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("raw panic: err = %v", err)
	}
	if qp.Value != "raw" || len(qp.Stack) == 0 {
		t.Fatalf("raw panic payload = %+v", qp)
	}
	// A par-carried panic keeps the original value and stack.
	carried := &par.PanicError{Value: "deep", Stack: []byte("stack-at-origin")}
	err = Guard(func() error { panic(carried) })
	if !errors.As(err, &qp) || qp.Value != "deep" || string(qp.Stack) != "stack-at-origin" {
		t.Fatalf("carried panic payload = %+v", qp)
	}
}

// TestScanMemberPanicIsolation is the batch-poisoning regression: one
// injected panic under a coalesced scan must cost exactly one member
// its answer, and the rest of the batch must still be correct.
func TestScanMemberPanicIsolation(t *testing.T) {
	defer fault.Disable()
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 1})
	patterns := make([]*graph.Graph, 8)
	for i := range patterns {
		patterns[i] = graph.Cycle(4)
	}

	if err := fault.Enable("query.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	res := ix.Scan(context.Background(), patterns)
	fault.Disable()

	panicked := 0
	for i, r := range res {
		if r.Err != nil {
			if !errors.Is(r.Err, ErrQueryPanic) {
				t.Fatalf("member %d: unexpected err %v", i, r.Err)
			}
			panicked++
			continue
		}
		if !r.Found {
			t.Fatalf("member %d: found=false, want true (C4 in 4x4 grid)", i)
		}
	}
	if panicked != 1 {
		t.Fatalf("%d members errored, want exactly 1", panicked)
	}

	// The index (and the shared pool under it) must be fully usable
	// after the panic: a clean rescan answers everything.
	for i, r := range ix.Scan(context.Background(), patterns) {
		if r.Err != nil || !r.Found {
			t.Fatalf("post-fault member %d: %+v", i, r)
		}
	}
}

// TestDPPanicCrossesPoolToScanErr injects the panic deep inside a band
// dynamic program — on a pool worker, mid-solve — and asserts it
// surfaces as the member's error instead of killing the process or
// poisoning the artifact cache.
func TestDPPanicCrossesPoolToScanErr(t *testing.T) {
	defer fault.Disable()
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 1})

	if err := fault.Enable("dp.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	res := ix.Scan(context.Background(), []*graph.Graph{graph.Cycle(4)})
	fault.Disable()
	if len(res) != 1 || res[0].Err == nil {
		t.Fatalf("injected band panic not surfaced: %+v", res)
	}
	if !errors.Is(res[0].Err, ErrQueryPanic) {
		t.Fatalf("err = %v, want ErrQueryPanic", res[0].Err)
	}
	var qp *QueryPanicError
	if !errors.As(res[0].Err, &qp) {
		t.Fatalf("err = %T", res[0].Err)
	}
	if _, ok := qp.Value.(*fault.InjectedPanic); !ok {
		t.Fatalf("panic value = %T (%v), want *fault.InjectedPanic", qp.Value, qp.Value)
	}
	if !strings.Contains(string(qp.Stack), "injectBandFaults") {
		t.Fatalf("stack does not name the injection site:\n%s", qp.Stack)
	}

	// Same query again, fault-free: correct answer, caches intact.
	res = ix.Scan(context.Background(), []*graph.Graph{graph.Cycle(4)})
	if res[0].Err != nil || !res[0].Found {
		t.Fatalf("post-fault rescan: %+v", res[0])
	}
}

// TestMemoDepoisonAfterBuildPanic: a panic inside a memoized artifact
// build must not leave a permanently poisoned entry behind — the next
// query rebuilds the artifact and answers.
func TestMemoDepoisonAfterBuildPanic(t *testing.T) {
	defer fault.Disable()
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 1})

	// dp.panic's first hits land inside prepare()'s band-decomposition
	// loop, i.e. inside the cover memo's build. Were the panicked build
	// to leave its cell behind, every later C4 query would find a
	// finished build with no cover and fail; the table drops the cell
	// instead and the clean rescan rebuilds.
	if err := fault.Enable("dp.panic=first:64", 1); err != nil {
		t.Fatal(err)
	}
	res := ix.Scan(context.Background(), []*graph.Graph{graph.Cycle(4)})
	if res[0].Err == nil {
		t.Fatal("expected injected failure")
	}
	fault.Disable()

	res = ix.Scan(context.Background(), []*graph.Graph{graph.Cycle(4)})
	if res[0].Err != nil || !res[0].Found {
		t.Fatalf("cache poisoned after build panic: %+v", res[0])
	}
	if cachedCovers(ix) == 0 {
		t.Fatal("no covers cached after clean rescan")
	}
}

func TestSingleQueryPanicPropagatesToCaller(t *testing.T) {
	defer fault.Disable()
	g := graph.Grid(4, 4)
	ix := New(g, core.Options{Seed: 1})
	if err := fault.Enable("query.panic=first:1", 1); err != nil {
		t.Fatal(err)
	}
	// The unbatched library methods keep panic semantics: the injected
	// panic reaches the caller's goroutine (exactly once), where a
	// caller-side Guard converts it.
	err := Guard(func() error {
		_, err := ix.Decide(graph.Cycle(4))
		return err
	})
	fault.Disable()
	if !errors.Is(err, ErrQueryPanic) {
		t.Fatalf("err = %v", err)
	}
	if found, err := ix.Decide(graph.Cycle(4)); err != nil || !found {
		t.Fatalf("post-fault Decide: found=%v err=%v", found, err)
	}
}
