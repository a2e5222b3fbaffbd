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
// tables, and make paper-smoke gates CI on their shape checks; the root
// bench_test.go exercises the same functions under testing.B.
package experiments

import (
	"fmt"
	"strings"
)

// Config scales the experiments.
type Config struct {
	// Quick shrinks the sweeps for fast runs (used by benchmarks and CI;
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

// All runs every experiment in paper order.
func All(cfg Config) []*Table {
	return []*Table{
		Table1(cfg),
		Fig1(cfg),
		Fig2(cfg),
		Fig3(cfg),
		Fig4(cfg),
		Fig5(cfg),
		Fig6(cfg),
		Fig7(cfg),
		ListAll(cfg),
		Disconnected(cfg),
		Genus43(cfg),
		AblationEngine(cfg),
		AblationBeta(cfg),
		AblationShortcut(cfg),
		AblationTD(cfg),
		AblationBalance(cfg),
	}
}

// ByName returns the experiment runner with the given id (e.g. "table1",
// "fig3", "list", "disconnected", "ablation-beta"), or nil.
func ByName(name string) func(Config) *Table {
	switch strings.ToLower(name) {
	case "table1", "t1", "1":
		return Table1
	case "fig1", "f1":
		return Fig1
	case "fig2", "f2":
		return Fig2
	case "fig3", "f3":
		return Fig3
	case "fig4", "f4":
		return Fig4
	case "fig5", "f5":
		return Fig5
	case "fig6", "f6":
		return Fig6
	case "fig7", "f7":
		return Fig7
	case "list", "listing", "thm4.2":
		return ListAll
	case "disconnected", "lemma4.1":
		return Disconnected
	case "genus", "thm4.4", "section4.3":
		return Genus43
	case "ablation-engine":
		return AblationEngine
	case "ablation-beta":
		return AblationBeta
	case "ablation-shortcut":
		return AblationShortcut
	case "ablation-td":
		return AblationTD
	case "ablation-balance":
		return AblationBalance
	}
	return nil
}

// Names lists the experiment ids ByName accepts, in paper order.
func Names() []string {
	return []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"list", "disconnected", "genus",
		"ablation-engine", "ablation-beta", "ablation-shortcut", "ablation-td",
		"ablation-balance",
	}
}
