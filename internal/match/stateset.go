package match

import (
	"math/bits"
	"slices"
	"sync"
)

// This file is the flat state-set substrate the two DP engines run on.
// The dynamic program only ever *inserts* states and *iterates* sets (a
// node's set is written once, bottom-up, then read by its parent and by
// top-down reconstruction), so the substrate drops everything a generic
// map pays for that the DP does not need: no deletion, no tombstones, no
// per-entry heap boxes, no rehash-on-iterate. A StateSet is a dense
// insertion-ordered []State plus a power-of-two open-addressing table of
// uint32 slot references used only for duplicate detection; iteration
// walks the dense slice and is both cache-friendly and deterministic.
// Sets come from a per-run arena (see arena below) so a DP over millions
// of nodes recycles a bounded pool of tables instead of allocating one
// map per node.

// StateSet is an insert-only set of States: a dense insertion-ordered
// slice plus an open-addressing index for membership. The zero value and
// the nil pointer are both valid empty sets for reading (Len, Contains,
// States); Add requires a non-nil receiver.
type StateSet struct {
	states []State
	// table holds 1-based indices into states (0 = empty slot), sized a
	// power of two; linear probing, no tombstones (insert-only).
	table []uint32
	mask  uint64
}

// NewStateSet returns an empty set pre-sized for about hint states.
func NewStateSet(hint int) *StateSet {
	s := &StateSet{}
	s.Reserve(hint)
	return s
}

// Len returns the number of states in the set.
func (s *StateSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.states)
}

// States returns the dense slice of states in insertion order. The slice
// aliases the set's storage: callers must not modify it and must not use
// it after the set is recycled.
func (s *StateSet) States() []State {
	if s == nil {
		return nil
	}
	return s.states
}

// Reset empties the set, keeping both the dense slice's and the table's
// capacity for reuse.
func (s *StateSet) Reset() {
	s.states = s.states[:0]
	clear(s.table) // memclr: 0 means empty, so no -1 refill pass
}

// tableSize returns the power-of-two open-addressing table size that
// holds n entries under a 2/3 load factor, at least 8 slots.
func tableSize(n int) int {
	return 1 << bits.Len(uint(max(n+n/2, 8)-1))
}

// emptyTable returns t resized to size empty slots, reusing its storage
// when it is large enough.
func emptyTable(t []uint32, size int) []uint32 {
	if cap(t) < size {
		return make([]uint32, size)
	}
	t = t[:size]
	clear(t)
	return t
}

// Reserve grows the table so about hint states fit without rehashing.
func (s *StateSet) Reserve(hint int) {
	size := tableSize(hint)
	if len(s.table) >= size {
		return
	}
	s.rehash(size)
	if cap(s.states) < hint {
		s.states = slices.Grow(s.states, hint-len(s.states))
	}
}

// rehash replaces the table with one of the given power-of-two size and
// reinserts the references of every held state.
func (s *StateSet) rehash(size int) {
	s.table = emptyTable(s.table, size)
	s.mask = uint64(size - 1)
	for idx := range s.states {
		i := hashState(&s.states[idx]) & s.mask
		for s.table[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = uint32(idx) + 1
	}
}

// Add inserts st and reports whether it was not already present.
func (s *StateSet) Add(st State) bool {
	if len(s.states)*3 >= len(s.table)*2 {
		s.Reserve(2*len(s.states) + 8)
	}
	i := hashState(&st) & s.mask
	for {
		ref := s.table[i]
		if ref == 0 {
			s.table[i] = uint32(len(s.states)) + 1
			s.states = append(s.states, st)
			return true
		}
		if s.states[ref-1] == st {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// IndexOf returns st's insertion index in States(), or -1 when absent.
// It lets a StateSet double as the dense state-numbering the path-DAG
// engine needs (replacing a separate map[State]int32 per level).
func (s *StateSet) IndexOf(st State) int {
	if s == nil || len(s.table) == 0 {
		return -1
	}
	i := hashState(&st) & s.mask
	for {
		ref := s.table[i]
		if ref == 0 {
			return -1
		}
		if s.states[ref-1] == st {
			return int(ref) - 1
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports whether st is in the set.
func (s *StateSet) Contains(st State) bool {
	if s == nil || len(s.table) == 0 {
		return false
	}
	i := hashState(&st) & s.mask
	for {
		ref := s.table[i]
		if ref == 0 {
			return false
		}
		if s.states[ref-1] == st {
			return true
		}
		i = (i + 1) & s.mask
	}
}

// packPhi packs the 16 slot bytes of a Phi array into two little-endian
// words; together with C/In/Out/IX/OX they canonically encode a state, so
// hashing and signature ordering work on machine words instead of struct
// fields.
func packPhi(phi *[MaxK]int8) (uint64, uint64) {
	var w0, w1 uint64
	for i := 0; i < 8; i++ {
		w0 |= uint64(uint8(phi[i])) << (8 * i)
		w1 |= uint64(uint8(phi[i+8])) << (8 * i)
	}
	return w0, w1
}

// wymix is the wyhash/wyrand folding primitive: full 64×64→128 multiply,
// xor of the halves. Two multiplies per word pair give plenty of
// avalanche for a power-of-two table with linear probing.
func wymix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
	wyp2 = 0x8ebc6af09c88c6e3
	wyp3 = 0x589965cc75374cc3
)

// hashState hashes the canonical 4-word packing of a state. It is a plain
// function of the state's bytes (no per-process seed), so table layouts —
// and therefore every downstream iteration order — are reproducible.
func hashState(s *State) uint64 {
	w0, w1 := packPhi(&s.Phi)
	w2 := uint64(s.In) | uint64(s.Out)<<32
	w3 := uint64(s.C)
	if s.IX {
		w3 |= 1 << 16
	}
	if s.OX {
		w3 |= 1 << 17
	}
	return wymix(w0^wyp0, wymix(w1^wyp1, wymix(w2^wyp2, w3^wyp3)))
}

// arena recycles StateSets within one engine. get/put are mutex-guarded:
// the sequential engine calls them uncontended once per node, and the
// path-DAG engine calls them once per path from parallel workers — never
// from a per-state hot loop.
type arena struct {
	mu   sync.Mutex
	free []*StateSet
}

// get returns an empty set sized for about hint states, reusing a
// recycled one when available.
func (a *arena) get(hint int) *StateSet {
	a.mu.Lock()
	var s *StateSet
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free = a.free[:n-1]
	}
	a.mu.Unlock()
	if s == nil {
		return NewStateSet(hint)
	}
	s.Reserve(hint)
	return s
}

// put recycles a set. The caller must be done with every slice previously
// obtained from it via States().
func (a *arena) put(s *StateSet) {
	if s == nil {
		return
	}
	s.Reset()
	a.mu.Lock()
	a.free = append(a.free, s)
	a.mu.Unlock()
}

// sigKey is a join signature (Phi, In, Out) packed into three comparable
// words; equal keys correspond exactly to equal JoinSignatures.
type sigKey struct {
	w0, w1, w2 uint64
}

func (s *State) sigKeyOf() sigKey {
	w0, w1 := packPhi(&s.Phi)
	return sigKey{w0, w1, uint64(s.In) | uint64(s.Out)<<32}
}

// hash folds the three key words with the same seedless wyhash mixing
// as hashState.
func (k sigKey) hash() uint64 {
	return wymix(k.w0^wyp0, wymix(k.w1^wyp1, k.w2^wyp2))
}

// JoinIndex answers "which states of this set share a given join
// signature", the grouping both engines need at every join. Build is one
// hashing pass plus a counting scatter, and Bucket is one probe, so a
// join costs time linear in the states it reads and emits (the paper's
// §3.2 join bound, with no sort). Every buffer is reused across Build
// calls: the sequential engine keeps one index per pattern for the whole
// run, so its joins group allocation-free once the buffers have grown,
// while pmdag keeps one per path and reuses it across that path's joins.
// A JoinIndex must not be shared between concurrent goroutines.
type JoinIndex struct {
	// table is a power-of-two open-addressing index over the distinct
	// signatures of the last Build: 1-based group ids, 0 = empty.
	table []uint32
	mask  uint64
	// keys[g] is group g's signature; start[g]..start[g+1] is its range
	// in states.
	keys  []sigKey
	start []uint32
	// group[i] is the group of input state i.
	group []uint32
	// states holds the input grouped by signature, each group's members
	// in input order.
	states []State
}

// Build (re)indexes the given states by join signature.
func (ji *JoinIndex) Build(states []State) {
	// Size the table as if every state were a group of its own.
	n := len(states)
	size := tableSize(n)
	ji.table = emptyTable(ji.table, size)
	ji.mask = uint64(size - 1)
	ji.keys = ji.keys[:0]
	// First start[g+1] counts group g's members (start[0] stays 0).
	ji.start = append(ji.start[:0], 0)
	ji.group = slices.Grow(ji.group[:0], n)[:n]
	for i := range states {
		key := states[i].sigKeyOf()
		h := ji.slot(key)
		if ji.table[h] == 0 {
			ji.keys = append(ji.keys, key)
			ji.start = append(ji.start, 0)
			ji.table[h] = uint32(len(ji.keys))
		}
		g := ji.table[h] - 1
		ji.group[i] = g
		ji.start[g+1]++
	}
	// Prefix sums turn the counts into group starts. Each group's start
	// then slides forward as the scatter fills the group, ending where
	// the next group begins, so one shift restores the starts.
	for g := 1; g < len(ji.start); g++ {
		ji.start[g] += ji.start[g-1]
	}
	ji.states = slices.Grow(ji.states[:0], n)[:n]
	for i := range states {
		g := ji.group[i]
		ji.states[ji.start[g]] = states[i]
		ji.start[g]++
	}
	copy(ji.start[1:], ji.start[:len(ji.start)-1])
	ji.start[0] = 0
}

// slot returns the table slot holding key's group, or the empty slot
// where it would go.
func (ji *JoinIndex) slot(key sigKey) uint64 {
	h := key.hash() & ji.mask
	for ji.table[h] != 0 && ji.keys[ji.table[h]-1] != key {
		h = (h + 1) & ji.mask
	}
	return h
}

// Bucket returns the half-open range [lo, hi) of states sharing s's join
// signature (empty when none does); access them with At.
func (ji *JoinIndex) Bucket(s *State) (int, int) {
	ref := ji.table[ji.slot(s.sigKeyOf())]
	if ref == 0 {
		return 0, 0
	}
	return int(ji.start[ref-1]), int(ji.start[ref])
}

// At returns the state at position t of a bucket range. The pointer is
// valid until the next Build.
func (ji *JoinIndex) At(t int) *State {
	return &ji.states[t]
}
