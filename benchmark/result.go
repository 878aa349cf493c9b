package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricValue is one named measurement as the last output line and the
// result file carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verbSummary is the wire-level timing of one verb inside one run.
type verbSummary struct {
	N         int     `json:"n"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	PerSecond float64 `json:"per_s"` // documents (load verbs) or requests acknowledged per second
}

// stageSummary is the staged timing of one layer call for one verb.
type stageSummary struct {
	N      int     `json:"n"`
	P50Us  float64 `json:"p50_us"`
	MeanUs float64 `json:"mean_us"`
}

// hostFacts describe where a run was measured.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	DataDir    string `json:"data_dir"`
	FSType     string `json:"fs_type"`
	SyncPolicy string `json:"sync_policy"`
	Commit     string `json:"commit"`
}

// runRecord is everything one invocation measured.
type runRecord struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	Smoke     bool    `json:"smoke,omitempty"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// Metrics holds exactly the metrics BENCHMARK.json declares for this
	// kind of run: end_to_end when Trace is 0, per_layer when it is 1.
	Metrics map[string]metricValue `json:"metrics"`
	// Exact names the metrics of this run that are counts which repeat
	// exactly when the same commit runs the same seed again.
	Exact []string `json:"exact,omitempty"`
	// Verbs is the wire-level timing per verb; Layers the staged timing
	// per verb and layer call (traced runs only).
	Verbs  map[string]verbSummary             `json:"verbs,omitempty"`
	Layers map[string]map[string]stageSummary `json:"layers,omitempty"`
	// SetupSeconds lists every timed set-up of the run; setup_s is their
	// median. Slices is what ops_per_s counts, per second of the window.
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	Slices       []float64 `json:"slices,omitempty"`
	CorpusHash   string    `json:"corpus_hash"`
	SpansFile    string    `json:"spans_file,omitempty"`
	Notes        []string  `json:"notes,omitempty"`
	Host         hostFacts `json:"host"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRun adds rec to the result file at path, creating it if needed,
// so that repeated invocations with the same -out build one set of runs.
func appendRun(path string, rec runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf = &resultFile{}
	} else if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	return writeJSONFile(path, rf)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func gatherHostFacts(dataDir, syncPolicy string) hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		DataDir:    dataDir,
		FSType:     fsTypeOf(dataDir),
		SyncPolicy: syncPolicy,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// fsTypeOf names the filesystem holding dir, from /proc/mounts: the
// longest mount point that is a prefix of the path wins. fsync on tmpfs
// is free, so a run there says nothing about WAL cost.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if mp != "/" && abs != mp && !strings.HasPrefix(abs, mp+"/") {
			continue
		}
		if len(mp) >= len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
