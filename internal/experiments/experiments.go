// Package experiments regenerates every table and figure of the paper's
// evaluation as empirical measurements: Table 1 (work/depth comparison of
// subgraph isomorphism algorithms) and the behaviour illustrated by
// Figures 1-7, plus the listing (Theorem 4.2) and disconnected-pattern
// (Lemma 4.1) extensions and the ablations DESIGN.md calls out.
//
// The paper is a theory paper; its "evaluation" consists of asymptotic
// bounds. Each experiment here measures the bound's *shape* — operation
// counts for work, synchronous round counts for depth, success
// frequencies for probabilistic claims — and reports the measured values
// next to what the paper predicts. The cmd/paperbench binary prints these
// tables, and make paper-smoke gates CI on their shape checks. This is
// the one paper-claims harness: the root benchmarks time the pipeline's
// hot paths and check no claim.
//
// Every pipeline call here sets core.Options.PaperLoop (and
// conn.Options.PaperLoop), so the experiments measure the paper's Monte
// Carlo loop — ESTC runs only, the Theorem 4.2 streak rule — rather than
// the default path's exact layered run.
package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks the sweeps for fast runs (used by tests and CI;
	// paperbench defaults to the full sweeps).
	Quick bool
	// Seed makes every experiment reproducible.
	Seed uint64
}

// Table is one regenerated paper artifact.
type Table struct {
	// ID names the paper artifact ("Table 1", "Figure 3", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Claim quotes what the paper predicts.
	Claim string
	// Header and Rows carry the measured series.
	Header []string
	Rows   [][]string
	// Notes records observations (pass/fail of shape checks).
	Notes []string
}

// Pass records a shape check that held.
func (t *Table) Pass(format string, args ...any) {
	t.Notes = append(t.Notes, "PASS: "+fmt.Sprintf(format, args...))
}

// Fail records a shape check that failed.
func (t *Table) Fail(format string, args ...any) {
	t.Notes = append(t.Notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// Failed reports whether any shape check failed.
func (t *Table) Failed() bool {
	for _, n := range t.Notes {
		if strings.HasPrefix(n, "FAIL") {
			return true
		}
	}
	return false
}

// Row appends a formatted row.
func (t *Table) Row(cols ...string) {
	t.Rows = append(t.Rows, cols)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.Claim)
	}
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[min(i, len(width)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   %s\n", n)
	}
	return b.String()
}

// experiment is one registered experiment: its id, the other names
// ByName accepts for it, and its runner.
type experiment struct {
	name    string
	aliases []string
	run     func(Config) *Table
}

// experimentList holds every experiment, in paper order; All, ByName and
// Names all read it.
var experimentList = []experiment{
	{"table1", []string{"t1", "1"}, Table1},
	{"fig1", []string{"f1"}, Fig1},
	{"fig2", []string{"f2"}, Fig2},
	{"fig3", []string{"f3"}, Fig3},
	{"fig4", []string{"f4"}, Fig4},
	{"fig5", []string{"f5"}, Fig5},
	{"fig6", []string{"f6"}, Fig6},
	{"fig7", []string{"f7"}, Fig7},
	{"list", []string{"listing", "thm4.2"}, ListAll},
	{"disconnected", []string{"lemma4.1"}, Disconnected},
	{"genus", []string{"thm4.4", "section4.3"}, Genus43},
	{"ablation-engine", nil, AblationEngine},
	{"ablation-beta", nil, AblationBeta},
	{"ablation-shortcut", nil, AblationShortcut},
	{"ablation-td", nil, AblationTD},
	{"ablation-balance", nil, AblationBalance},
}

// All runs every experiment in paper order.
func All(cfg Config) []*Table {
	tables := make([]*Table, len(experimentList))
	for i, e := range experimentList {
		tables[i] = e.run(cfg)
	}
	return tables
}

// ByName returns the experiment runner with the given id or alias (e.g.
// "table1", "fig3", "list", "disconnected", "ablation-beta"), or nil.
func ByName(name string) func(Config) *Table {
	name = strings.ToLower(name)
	for _, e := range experimentList {
		if e.name == name || slices.Contains(e.aliases, name) {
			return e.run
		}
	}
	return nil
}

// Names lists the experiment ids ByName accepts, in paper order.
func Names() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}
