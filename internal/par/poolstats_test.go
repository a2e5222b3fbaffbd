package par

import (
	"sync/atomic"
	"testing"
)

// TestReadPoolStats drives enough forked work through the shared pool
// to exercise the event counters and checks the snapshot invariants:
// counters are monotonic, the live pool's shape is reported, and the
// parked count never exceeds the worker count.
func TestReadPoolStats(t *testing.T) {
	before := ReadPoolStats()

	var sum atomic.Int64
	For(0, 1<<14, func(i int) { sum.Add(int64(i)) })
	if want := int64(1<<14) * ((1 << 14) - 1) / 2; sum.Load() != want {
		t.Fatalf("For sum = %d, want %d", sum.Load(), want)
	}

	after := ReadPoolStats()
	if after.Steals < before.Steals || after.Parks < before.Parks || after.Resizes < before.Resizes {
		t.Fatalf("counters went backwards: %+v -> %+v", before, after)
	}
	if Parallelism() > 1 {
		if after.Workers != Parallelism() {
			t.Fatalf("Workers = %d, want Parallelism() = %d", after.Workers, Parallelism())
		}
		if after.Parked < 0 || after.Parked > after.Workers {
			t.Fatalf("Parked = %d out of [0, %d]", after.Parked, after.Workers)
		}
	}
}
