// Command subiso decides, finds, lists or counts occurrences of pattern
// graphs inside a target graph using the paper's parallel planar subgraph
// isomorphism pipeline.
//
// Usage:
//
//	subiso -target g.edges -pattern h.edges                 # decide
//	subiso -target g.edges -pattern h.edges -mode find      # one witness
//	subiso -target g.edges -pattern h.edges -mode list      # all occurrences
//	subiso -target g.edges -pattern h.edges -mode count
//	subiso -target g.edges -pattern h1.edges,h2.edges,...   # batched scan
//	cat g.edges | subiso -target - -pattern h.edges         # target on stdin
//
// All files use the edge-list format: one "u v" pair per line, '#'
// comments, optional "n <count>" header; the path "-" reads standard
// input (for at most one of the inputs). Patterns may be disconnected in
// decide mode. -pattern accepts a comma-separated list; the target is
// preprocessed once (planarsi.Index) and shared by every query. Decide
// and count batches run concurrently over the shared decompositions
// (Index.Scan/ScanCount); find and list answer patterns one at a time,
// still reusing the Index. One line is printed per pattern. Errors abort
// the run with a nonzero exit before any result is printed — a failing
// batch never produces partial output. With -stats, work/depth counters
// and pipeline statistics are printed to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"planarsi"
	"planarsi/internal/gio"
)

func main() {
	target := flag.String("target", "", "target graph edge-list file, or - for stdin (required)")
	pattern := flag.String("pattern", "", "pattern edge-list file(s), comma-separated, - for stdin (required)")
	mode := flag.String("mode", "decide", "decide | find | list | count")
	seed := flag.Uint64("seed", 1, "random seed")
	runs := flag.Int("runs", 0, "cover run budget (1 = one random run, negatives w.h.p.; any other value ends a miss with the exact layered run)")
	stats := flag.Bool("stats", false, "print work/depth statistics to stderr")
	flag.Parse()

	if *target == "" || *pattern == "" {
		flag.Usage()
		os.Exit(2)
	}
	files := strings.Split(*pattern, ",")
	stdins := 0
	for _, f := range append([]string{*target}, files...) {
		if f == "-" {
			stdins++
		}
	}
	if stdins > 1 {
		fatal("only one input may be stdin (-)")
	}
	g, err := gio.ReadEdgeListFile(*target)
	if err != nil {
		fatal("target: %v", err)
	}
	hs := make([]*planarsi.Graph, len(files))
	for i, f := range files {
		if hs[i], err = gio.ReadEdgeListFile(f); err != nil {
			fatal("pattern: %v", err)
		}
		if hs[i].N() > planarsi.MaxPatternSize {
			fatal("%s: pattern has %d vertices, over the engine limit of %d",
				f, hs[i].N(), planarsi.MaxPatternSize)
		}
	}

	opt := planarsi.Options{Seed: *seed, MaxRuns: *runs}
	var st planarsi.Stats
	if *stats {
		opt.Tracker = planarsi.NewTracker()
		opt.Stats = &st
	}
	// One Index serves the whole invocation: the target is preprocessed
	// once even when several patterns are given, and answers are
	// identical to the one-shot API's for the same options.
	ix := planarsi.NewIndex(g, opt)
	batch := len(hs) > 1

	// The Index dedupes isomorphic batch members internally; report the
	// leverage so users see when their batch collapsed.
	if batch {
		distinct := make(map[string]struct{}, len(hs))
		for _, h := range hs {
			distinct[planarsi.CanonicalPatternKey(h)] = struct{}{}
		}
		if dup := len(hs) - len(distinct); dup > 0 {
			fmt.Fprintf(os.Stderr, "subiso: %d of %d patterns are isomorphic duplicates (%d distinct); duplicates share one query\n",
				dup, len(hs), len(distinct))
		}
	}

	// Results are buffered and only printed once the whole batch has
	// succeeded, so a failing pattern aborts with exit 2 and no partial
	// output.
	var out strings.Builder
	exit := 0
	switch *mode {
	case "decide":
		results := ix.Scan(context.Background(), hs)
		for i, res := range results {
			if res.Err != nil {
				fatal("%s: %v", files[i], res.Err)
			}
		}
		for i, res := range results {
			printBatch(&out, batch, files[i], res.Found)
			if !res.Found {
				exit = 1
			}
		}
	case "count":
		results := ix.ScanCount(context.Background(), hs)
		for i, res := range results {
			if res.Err != nil {
				fatal("%s: %v", files[i], res.Err)
			}
		}
		for i, res := range results {
			printBatch(&out, batch, files[i], res.Count)
		}
	case "find":
		for i, h := range hs {
			occ, err := ix.FindOccurrence(h)
			if err != nil {
				fatal("%s: %v", files[i], err)
			}
			if occ == nil {
				printBatch(&out, batch, files[i], "not found")
				exit = 1
				continue
			}
			if batch {
				fmt.Fprintf(&out, "%s: ", files[i])
			}
			printOccurrence(&out, occ)
		}
	case "list":
		for i, h := range hs {
			occs, err := ix.ListOccurrences(h)
			if err != nil {
				fatal("%s: %v", files[i], err)
			}
			for _, occ := range occs {
				if batch {
					fmt.Fprintf(&out, "%s: ", files[i])
				}
				printOccurrence(&out, occ)
			}
		}
	default:
		fatal("unknown mode %q", *mode)
	}
	fmt.Print(out.String())
	report(opt, st)
	os.Exit(exit)
}

func printBatch(out *strings.Builder, batch bool, file string, v any) {
	if batch {
		fmt.Fprintf(out, "%s: %v\n", file, v)
	} else {
		fmt.Fprintln(out, v)
	}
}

func printOccurrence(out *strings.Builder, occ planarsi.Occurrence) {
	for u, v := range occ {
		if u > 0 {
			fmt.Fprint(out, " ")
		}
		fmt.Fprintf(out, "%d->%d", u, v)
	}
	fmt.Fprintln(out)
}

func report(opt planarsi.Options, st planarsi.Stats) {
	if opt.Tracker == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "stats: %s runs=%d bands=%d maxWidth=%d fallback=%d\n",
		opt.Tracker, st.Runs, st.Bands, st.MaxBandWidth, st.FallbackBands)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "subiso: "+format+"\n", args...)
	os.Exit(2)
}
