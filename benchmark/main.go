// Command benchmark is the wire-level benchmark of xmlordb: it boots an
// in-process xmlordbd server on loopback TCP, drives it through the typed
// client as a closed loop, checks the replies and reports named numeric
// metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed     = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds  = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a staged, traced run")
		smoke    = fs.Bool("smoke", false, "sizes about a hundredth of the frozen ones: a functional check, not a measurement")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark declaration to check the results against")
		scratch  = fs.String("scratch", ".bench_build/data", "directory for server data; removed again after each run")
		outDir   = fs.String("outdir", "benchmark/out", "directory for result and span files")
		outFile  = fs.String("out", "", "result file to append this run to, building a set for compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		sizes: fullSizes, scratch: *scratch, outDir: *outDir, outFile: *outFile, spec: sp,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	if *smoke {
		cfg.sizes = smokeSizes
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}

	if *workload != "" {
		cfg.workload = findWorkload(*workload)
		if cfg.workload == nil || !sp.hasWorkload(*workload) {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		rec, err := execute(cfg)
		if err != nil {
			return err
		}
		printRecord(rec)
		return printResultLine(rec)
	}

	// No workload named: the whole benchmark, every metric by name.
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg.workload, cfg.trace = w, traced
			rec, err := execute(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRecord(rec)
		}
	}
	return nil
}

// printRecord writes every metric of the run by name with its unit, and
// the per-verb and per-layer tables, to standard error: standard output
// ends with the one result line the driver reads.
func printRecord(rec runRecord) {
	w := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', 0)
	fmt.Fprintf(w, "== %s  seed %d  %.3gs  trace %d  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed)
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	if len(rec.Verbs) > 0 {
		fmt.Fprintf(w, "verb\tn\tp50 ms\tp95 ms\tp99 ms\tmean ms\tper s\n")
		for _, name := range sortedKeys(rec.Verbs) {
			v := rec.Verbs[name]
			fmt.Fprintf(w, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.5g\n", name, v.N, v.P50Ms, v.P95Ms, v.P99Ms, v.MeanMs, v.PerSecond)
		}
	}
	for _, verb := range sortedKeys(rec.Layers) {
		fmt.Fprintf(w, "layers of %s\tn\tp50 us\tmean us\n", verb)
		for _, stage := range sortedKeys(rec.Layers[verb]) {
			s := rec.Layers[verb][stage]
			fmt.Fprintf(w, "  %s\t%d\t%.4g\t%.4g\n", stage, s.N, s.P50Us, s.MeanUs)
		}
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	w.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printResultLine writes the line the driver parses: the last line of
// standard output.
func printResultLine(rec runRecord) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
