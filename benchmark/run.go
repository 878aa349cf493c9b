package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation: which workload, from which seed, for how
// long, traced or not, and where data and results go.
type runConfig struct {
	workload *workloadDef
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	sizes    sizes
	scratch  string // server data directories are made (and removed) here
	outDir   string
	outFile  string // result set to append to; empty means a file of this run's own in outDir
	spec     *spec
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c runConfig) traceFlag() int {
	if c.trace {
		return 1
	}
	return 0
}

// execute runs the configured workload, checks the record against
// BENCHMARK.json and files it.
func execute(cfg runConfig) (runRecord, error) {
	rec := runRecord{
		Workload: cfg.workload.name,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.traceFlag(),
		Smoke:    cfg.smoke,
		Host:     gatherHostFacts(cfg.scratch, syncPolicy),
	}
	if rec.Host.FSType == "tmpfs" {
		fmt.Fprintln(os.Stderr, "warning: the data directory is on tmpfs, where fsync costs nothing; WAL numbers from this run say nothing about a disk")
	}
	var err error
	if cfg.trace {
		err = runTraced(cfg, &rec)
	} else {
		err = runUntraced(cfg, &rec)
	}
	if err != nil {
		return rec, err
	}
	if err := cfg.spec.conform(cfg.trace, rec.Metrics); err != nil {
		return rec, err
	}
	rec.Correct = rec.Failed == 0
	out := cfg.outFile
	if out == "" {
		out = filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
		os.Remove(out) // a file of this run's own holds this run alone
	}
	return rec, appendRun(out, rec)
}

// runUntraced measures the end-to-end metrics: several timed set-ups, a
// warm-up, then the workload's closed loop for the whole window.
func runUntraced(cfg runConfig, rec *runRecord) error {
	w := cfg.workload
	recs := newRecorders()

	var b *bed
	var heapBase uint64
	for i := 0; i < cfg.sizes.setups; i++ {
		if b != nil {
			if err := b.tearDown(); err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
		var took time.Duration
		var err error
		b, took, heapBase, err = setUp(w, cfg.seed, cfg.sizes, dataDir(cfg.scratch, cfg, i))
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec.SetupSeconds = append(rec.SetupSeconds, took.Seconds())
	}
	defer b.tearDown()
	rec.CorpusHash = b.corp.hash()

	s := newSession(b, cfg.seed, recs)
	s.warmUp(cfg.sizes)
	// The store's memory is measured when the store is complete: before
	// the window where set-up preloads it, after the window where the
	// window is what loads it.
	var heapEnd uint64
	resident := s.load.resident.Load()
	if w.preload {
		heapEnd = liveHeap()
	}
	window := cfg.window()
	drive(s.actors, s.recs, forDuration(window))
	verbs := summarize(s.recs, window)
	rec.Slices = sliceRates(s.recs, window, w.counted)
	if !w.preload {
		heapEnd = liveHeap()
		resident = s.load.resident.Load()
	}
	s.verify()

	var firstErr error
	rec.Attempted, rec.Failed, firstErr = s.outcome()
	if firstErr != nil {
		rec.Notes = append(rec.Notes, "first failure: "+firstErr.Error())
	}
	rec.Verbs = verbsByName(verbs)
	head := verbs[w.headline]
	tail := head.P99Ms
	if w.tail == 95 {
		tail = head.P95Ms
	}
	rec.Metrics = map[string]metricValue{
		"ops_per_s":          {perSecond(verbs, w.counted), "1/s"},
		"p50_ms":             {head.P50Ms, "ms"},
		"tail_ms":            {tail, "ms"},
		"heap_per_user_byte": {float64(heapEnd-heapBase) / float64(resident), "B/B"},
		"setup_s":            {median(rec.SetupSeconds), "s"},
	}
	return nil
}
