package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"planarsi/internal/obs"
)

// keepSpans bounds the spans a traced run keeps for its trace file.
// Spans past the bound still count in the per-name totals and self
// times; only their records are dropped.
const keepSpans = 50000

// span is one interval of a traced run: a call the benchmark makes into
// a layer, or a span the program recorded beneath it. Spans of one
// operation share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Req    string  `json:"req"`
	Name   string  `json:"name"`
	Note   string  `json:"note,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	parent *span
	// kids holds the intervals of ended children until this span ends,
	// when they give its self time.
	kids [][2]float64
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	Count  int            `json:"count"`
	Ms     float64        `json:"ms"`
	SelfMs float64        `json:"self_ms"`
	Notes  map[string]int `json:"notes,omitempty"`
}

// tracer keeps a traced run's spans in memory; write saves them at exit.
// A nil *tracer records nothing.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	nextID  int
	kept    []*span
	dropped int
	totals  map[string]*spanTotals
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), totals: make(map[string]*spanTotals)}
}

func (t *tracer) at(ts time.Time) float64 { return float64(ts.Sub(t.origin).Nanoseconds()) / 1e3 }

// begin opens a span under parent (nil for an operation's root span).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	return t.open(name, parent, time.Now(), "")
}

func (t *tracer) open(name string, parent *span, start time.Time, note string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &span{ID: t.nextID, Name: name, Note: note, Start: t.at(start), parent: parent}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	} else {
		s.Req = fmt.Sprintf("op-%d", s.ID)
	}
	return s
}

// endAt closes a span at the given time.
func (t *tracer) endAt(s *span, end time.Time) {
	if t == nil || s == nil {
		return
	}
	t.close(s, end)
}

// end closes a span now.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	t.close(s, time.Now())
}

func (t *tracer) close(s *span, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = t.at(end)
	covered := union(s.kids, s.Start, s.End)
	s.kids = nil
	tot := t.totals[s.Name]
	if tot == nil {
		tot = &spanTotals{}
		t.totals[s.Name] = tot
	}
	tot.Count++
	tot.Ms += (s.End - s.Start) / 1e3
	tot.SelfMs += (s.End - s.Start - covered) / 1e3
	if s.Note != "" {
		if tot.Notes == nil {
			tot.Notes = make(map[string]int)
		}
		tot.Notes[s.Note]++
	}
	if s.parent != nil {
		s.parent.kids = append(s.parent.kids, [2]float64{s.Start, s.End})
	}
	if len(t.kept) < keepSpans {
		t.kept = append(t.kept, s)
	} else {
		t.dropped++
	}
}

// record adds a finished child span under parent.
func (t *tracer) record(name string, parent *span, start, end time.Time, note string) {
	if t == nil {
		return
	}
	t.close(t.open(name, parent, start, note), end)
}

// call times f as a child span of parent.
func (t *tracer) call(name string, parent *span, f func()) {
	if t == nil {
		f()
		return
	}
	s := t.begin(name, parent)
	f()
	t.end(s)
}

// adopt turns the spans a program recorder collected beneath parent into
// child spans named prefix+name. origin is the recorder's creation time.
func (t *tracer) adopt(parent *span, origin time.Time, prefix string, spans []obs.Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		start := origin.Add(time.Duration(sp.StartMicros * 1e3))
		t.record(prefix+sp.Name, parent, start, start.Add(time.Duration(sp.DurMicros*1e3)), sp.Note)
	}
}

// union is the length of the union of intervals clipped to [lo, hi].
func union(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.kept) + t.dropped
}

func (t *tracer) total(name string) spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return spanTotals{}
}

// unattributedShare is the share of operation time that no layer span
// covers: the self time of the operations' root spans over their total.
func (t *tracer) unattributedShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var self, total float64
	for name, tot := range t.totals {
		if len(name) > 3 && name[:3] == "op." {
			self += tot.SelfMs
			total += tot.Ms
		}
	}
	if total == 0 {
		return 0
	}
	return self / total
}

// addSpanLayers derives the layer metrics that come from span totals:
// the program's own prepare and band spans under each operation.
func addSpanLayers(l layerSet, t *tracer, out *outcome) {
	ops := float64(max(len(out.samples), 1))
	prep, band := t.total("core.prepare"), t.total("core.band")
	l.set("core.prepare_ms", prep.Ms/ops)
	l.set("core.band_ms", band.Ms/ops)
	l.set("core.bands_skipped", float64(band.Notes["skipped"])/ops)
	l.set("core.bands_cancelled", float64(band.Notes["cancelled"])/ops)
}

// write saves the run's spans and per-name totals as JSON in cfg.out.
func (t *tracer) write(cfg config, st stamp) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Stamp   stamp                  `json:"stamp"`
		Totals  map[string]*spanTotals `json:"totals"`
		Dropped int                    `json:"dropped"`
		Spans   []*span                `json:"spans"`
	}{st, t.totals, t.dropped, t.kept})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# trace written to %s (%d spans, %d dropped)\n", path, len(t.kept), t.dropped)
	return nil
}
