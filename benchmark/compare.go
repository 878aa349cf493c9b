package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain is `benchmark compare [-spec BENCHMARK.json] <base.json>
// [<new.json>]`. Each file is a set of runs built with -out. With two
// sets it prints one row per workload and end-to-end metric — both
// medians, quartiles, the ratio with its base and a verdict — and exits
// non-zero on a regression, on a higher share of failed operations, or
// when two runs of one seed disagree on a count marked exact. With one
// set it prints the set's own medians and spreads.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration that holds directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] <base.json> [<new.json>]")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var sets []*resultFile
	for _, path := range fs.Args() {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sets = append(sets, rf)
	}
	bad := compareSets(os.Stdout, sp, sets)
	if bad > 0 {
		return 1
	}
	return 0
}

// column is one set's values of one metric on one workload.
type column struct {
	values      []float64
	med, q1, q3 float64
	spread      float64
}

// measured reports whether r is a run compare looks at: end-to-end
// metrics of a full-size run of the workload.
func measured(r runRecord, workload string) bool {
	return r.Workload == workload && r.Trace == 0 && !r.Smoke
}

func columnOf(rf *resultFile, workload, metric string) column {
	var c column
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[metric]; ok && measured(r, workload) {
			c.values = append(c.values, m.Value)
		}
	}
	c.med = median(c.values)
	c.q1, c.q3 = c.med, c.med
	if len(c.values) >= 2 {
		c.q1, c.q3 = quartiles(c.values)
		c.spread = spread(c.values)
	}
	return c
}

// failedShare is failed over attempted operations across the workload's
// runs, and whether the set has such runs at all.
func failedShare(rf *resultFile, workload string) (share float64, ok bool) {
	var attempted, failed int64
	for _, r := range rf.Runs {
		if measured(r, workload) {
			ok = true
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return ratio(float64(failed), float64(attempted)), ok
}

// worsening is by how much of base's median new's median is worse.
func worsening(m specMetric, base, new float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return 1 - new/base
	}
	return new/base - 1
}

// compareSets writes the table and returns how many findings make the
// comparison fail.
func compareSets(out io.Writer, sp *spec, sets []*resultFile) int {
	bad := 0
	w := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	two := len(sets) == 2
	if two {
		fmt.Fprintln(w, "workload\tmetric\tunit\tbase median [q1 q3] n\tnew median [q1 q3] n\tnew/base\tbound\tspread base/new\tverdict")
	} else {
		fmt.Fprintln(w, "workload\tmetric\tunit\tmedian [q1 q3] n\tbound\tspread\tverdict")
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			base := columnOf(sets[0], wl.Name, m.Name)
			if len(base.values) == 0 {
				continue
			}
			if !two {
				verdict := "steady"
				if base.spread > m.Bound && m.Name != "setup_s" {
					verdict = "noisy"
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%.5g [%.5g %.5g] %d\t%.0f%%\t%.1f%%\t%s\n",
					wl.Name, m.Name, m.Unit, base.med, base.q1, base.q3, len(base.values), m.Bound*100, base.spread*100, verdict)
				continue
			}
			nw := columnOf(sets[1], wl.Name, m.Name)
			if len(nw.values) == 0 {
				continue
			}
			worse := worsening(m, base.med, nw.med)
			verdict := "ok"
			switch {
			// Set-up time is one sample of a few per run: the acceptance
			// rule exempts its spread, and so does this.
			case m.Name != "setup_s" && (base.spread > m.Bound || nw.spread > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.5g [%.5g %.5g] %d\t%.5g [%.5g %.5g] %d\t%.3f of %.5g\t%.0f%%\t%.1f%% / %.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, base.med, base.q1, base.q3, len(base.values),
				nw.med, nw.q1, nw.q3, len(nw.values), ratio(nw.med, base.med), base.med, m.Bound*100,
				base.spread*100, nw.spread*100, verdict)
		}
		base, ok := failedShare(sets[0], wl.Name)
		if !ok {
			continue
		}
		if !two {
			fmt.Fprintf(w, "%s\tfailed_share\t\t%.6g\t\t\t\n", wl.Name, base)
			continue
		}
		nw, _ := failedShare(sets[1], wl.Name)
		verdict := "ok"
		if nw > base {
			verdict = "regressed"
			bad++
		}
		fmt.Fprintf(w, "%s\tfailed_share\t\t%.6g\t%.6g\t\t\t\t%s\n", wl.Name, base, nw, verdict)
	}
	w.Flush()

	groups, mismatches := exactDisagreements(sets)
	fmt.Fprintf(out, "exact counts: %d groups of runs with one workload, seed and length checked, %d disagreements\n", groups, len(mismatches))
	for _, line := range mismatches {
		fmt.Fprintln(out, "  "+line)
	}
	return bad + len(mismatches)
}

// exactDisagreements finds the counts marked exact on which two runs of
// the same workload, seed, length and kind do not agree.
func exactDisagreements(sets []*resultFile) (groups int, mismatches []string) {
	type key struct {
		workload string
		seed     int64
		seconds  float64
		trace    int
		smoke    bool
	}
	byKey := map[key][]runRecord{}
	for _, rf := range sets {
		for _, r := range rf.Runs {
			if len(r.Exact) > 0 {
				k := key{r.Workload, r.Seed, r.Seconds, r.Trace, r.Smoke}
				byKey[k] = append(byKey[k], r)
			}
		}
	}
	for k, runs := range byKey {
		if len(runs) < 2 {
			continue
		}
		groups++
		for _, name := range runs[0].Exact {
			for _, r := range runs[1:] {
				if r.Metrics[name].Value != runs[0].Metrics[name].Value {
					mismatches = append(mismatches, fmt.Sprintf("%s seed %d: %s is %v in one run and %v in another",
						k.workload, k.seed, name, runs[0].Metrics[name].Value, r.Metrics[name].Value))
					break
				}
			}
		}
	}
	sort.Strings(mismatches)
	return groups, mismatches
}
