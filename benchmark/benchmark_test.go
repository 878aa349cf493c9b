package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// Same seed, same bytes and same requests; another seed, other ones.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := newCorpus(7, 120), newCorpus(7, 120), newCorpus(8, 120)
	if a.hash() != b.hash() {
		t.Error("one seed gave two corpora")
	}
	if a.hash() == c.hash() {
		t.Error("two seeds gave one corpus")
	}
	// Seeds move the order of documents, not how many of each size there
	// are: corpora of two seeds hold the same number of students.
	students := func(c *corpus) (n int) {
		for _, d := range c.docs {
			n += d.students
		}
		return n
	}
	if students(a) != students(c) {
		t.Errorf("seeds 7 and 8 generate %d and %d students", students(a), students(c))
	}

	mix := func(seed int64, corp *corpus) string {
		point := func(k int) target { return target{doc: k, docID: k + 1} }
		pick := func(rng *rand.Rand) target { i := rng.Intn(len(corp.docs)); return target{doc: i, docID: i + 1} }
		return newReadMix(seed, 0, corp, false, point, pick).sequenceHash(500)
	}
	if mix(7, a) != mix(7, b) {
		t.Error("one seed gave two request sequences")
	}
	if mix(7, a) == mix(8, a) {
		t.Error("two seeds gave one request sequence")
	}
}

// The ground truth the generator computes is what a store holding the
// corpus answers: checked here on the embedded twin the staged phase uses.
func TestGroundTruthMatchesTheStore(t *testing.T) {
	w := findWorkload("read_mix")
	corp := newCorpus(3, 40)
	st, err := newStager(w, corp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	st.run(3, 200)
	if st.failed != 0 {
		t.Fatalf("%d of %d staged requests disagreed with the ground truth: %v", st.failed, st.attempted, st.firstErr)
	}
}

// Every workload runs end to end in smoke mode, untraced and traced, with
// no failed operation, and files a result that names only what
// BENCHMARK.json declares.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	sp := testSpec(t)
	out := filepath.Join(t.TempDir(), "set.json")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{
				workload: w, seed: 5, seconds: 0.3, trace: traced, smoke: true, sizes: smokeSizes,
				scratch: t.TempDir(), outDir: t.TempDir(), outFile: out, spec: sp,
			}
			rec, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			if !traced {
				for name, m := range rec.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", w.name, name, m.Value)
					}
				}
				continue
			}
			spans, err := os.ReadFile(rec.SpansFile)
			if err != nil {
				t.Fatal(err)
			}
			var ss []span
			if err := json.Unmarshal(spans, &ss); err != nil || len(ss) == 0 {
				t.Errorf("%s: spans file holds %d spans, err %v", w.name, len(ss), err)
			}
			if len(rec.Layers) == 0 {
				t.Errorf("%s: traced run has no layer table", w.name)
			}
		}
	}

	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 2*len(workloads) {
		t.Fatalf("result file holds %d runs, want %d", len(rf.Runs), 2*len(workloads))
	}
	for _, r := range rf.Runs {
		if !sp.hasWorkload(r.Workload) {
			t.Errorf("result names workload %q, BENCHMARK.json does not", r.Workload)
		}
		if err := sp.conform(r.Trace == 1, r.Metrics); err != nil {
			t.Errorf("%s trace %d: %v", r.Workload, r.Trace, err)
		}
		if r.Host.NProc == 0 || r.Host.GoVersion == "" || r.Host.SyncPolicy != syncPolicy || r.Host.FSType == "" {
			t.Errorf("%s: host facts incomplete: %+v", r.Workload, r.Host)
		}
	}
}

// The workloads the harness implements are the workloads declared.
func TestSpecNamesTheWorkloads(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range workloads {
		if !sp.hasWorkload(w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
		if w.clients > maxClients || len(w.wirePerSec) != w.clients {
			t.Errorf("workload %s: %d clients, %d wire-phase counts", w.name, w.clients, len(w.wirePerSec))
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s has bound %v", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("BENCHMARK.json has no setup_s metric in seconds, lower is better")
	}
}

func TestQuartilesArePythons(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; want 1, 4", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func set(workload string, exact []string, runs ...map[string]float64) *resultFile {
	rf := &resultFile{}
	for i, values := range runs {
		m := map[string]metricValue{}
		for k, v := range values {
			m[k] = metricValue{Value: v}
		}
		rf.Runs = append(rf.Runs, runRecord{Workload: workload, Seed: int64(i), Seconds: 1, Attempted: 100, Metrics: m, Exact: exact})
	}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	base := set("w", nil,
		map[string]float64{"ops_per_s": 100, "p50_ms": 1.00},
		map[string]float64{"ops_per_s": 101, "p50_ms": 1.01},
		map[string]float64{"ops_per_s": 99, "p50_ms": 0.99})
	cases := []struct {
		name string
		new  *resultFile
		bad  int
		want string
	}{
		{"same", base, 0, "ok"},
		{"slower", set("w", nil,
			map[string]float64{"ops_per_s": 80, "p50_ms": 1.0},
			map[string]float64{"ops_per_s": 81, "p50_ms": 1.0},
			map[string]float64{"ops_per_s": 79, "p50_ms": 1.0}), 1, "regressed"},
		{"noisy", set("w", nil,
			map[string]float64{"ops_per_s": 60, "p50_ms": 1.0},
			map[string]float64{"ops_per_s": 100, "p50_ms": 1.0},
			map[string]float64{"ops_per_s": 140, "p50_ms": 1.0}), 0, "unresolved"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if bad := compareSets(&out, sp, []*resultFile{base, c.new}); bad != c.bad {
			t.Errorf("%s: %d findings, want %d\n%s", c.name, bad, c.bad, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.want, out.String())
		}
	}

	failing := set("w", nil, map[string]float64{"ops_per_s": 100, "p50_ms": 1}, map[string]float64{"ops_per_s": 100, "p50_ms": 1})
	failing.Runs[0].Failed = 1
	var out bytes.Buffer
	if bad := compareSets(&out, sp, []*resultFile{base, failing}); bad != 1 {
		t.Errorf("a higher failed share gave %d findings, want 1\n%s", bad, out.String())
	}

	// Two runs of one seed that disagree on an exact count fail the comparison.
	a := set("w", []string{"wal.fsyncs_per_doc"}, map[string]float64{"wal.fsyncs_per_doc": 0.015625})
	b := set("w", []string{"wal.fsyncs_per_doc"}, map[string]float64{"wal.fsyncs_per_doc": 0.015625})
	out.Reset()
	if bad := compareSets(&out, sp, []*resultFile{a, b}); bad != 0 {
		t.Errorf("agreeing exact counts gave %d findings\n%s", bad, out.String())
	}
	b.Runs[0].Metrics["wal.fsyncs_per_doc"] = metricValue{Value: 0.02}
	out.Reset()
	if bad := compareSets(&out, sp, []*resultFile{a, b}); bad != 1 {
		t.Errorf("disagreeing exact counts gave %d findings, want 1\n%s", bad, out.String())
	}
}
