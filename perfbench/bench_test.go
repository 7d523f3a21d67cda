package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var (
	acceldOnce sync.Once
	acceldBin  string
	acceldErr  error
)

// buildAcceld builds the daemon once for every test in the package.
func buildAcceld(t *testing.T) string {
	t.Helper()
	acceldOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench")
		if err != nil {
			acceldErr = err
			return
		}
		acceldBin = filepath.Join(dir, "acceld")
		out, err := exec.Command("go", "build", "-o", acceldBin, "repro/cmd/acceld").CombinedOutput()
		if err != nil {
			acceldErr = err
			t.Logf("%s", out)
		}
	})
	if acceldErr != nil {
		t.Fatalf("build acceld: %v", acceldErr)
	}
	return acceldBin
}

// shortRun runs one workload for a single round with one set-up.
func shortRun(t *testing.T, name string, trace bool, corrupt string) (*result, *runner) {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	o := options{
		seed: 7, seconds: 0.1, trace: trace, setups: 1, corrupt: corrupt,
		acceld: buildAcceld(t), dir: t.TempDir(), cat: readCatalog(t),
	}
	res, r, err := runWorkload(o, w)
	if err != nil {
		t.Fatal(err)
	}
	return res, r
}

func readCatalog(t *testing.T) catalog {
	t.Helper()
	c, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsReportEveryMetric runs every workload, timed and traced,
// and checks that each prints every metric BENCHMARK.json lists for its
// kind, finite and with the documented unit, and that no chain
// returned wrong bytes.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	f := readCatalog(t)
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(listed.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if listed.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, listed.Workloads[i].Name, wl.name)
		}
		for _, trace := range []bool{false, true} {
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			res, _ := shortRun(t, wl.name, trace, "")
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", wl.name, trace, res.Correct, res.Attempted)
			}
			if res.Failed > 0 {
				t.Logf("%s trace=%v: %d of %d chains failed", wl.name, trace, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedReferenceFails flips a byte of one job's reference: every
// chain of that job must then count as failed and the run as incorrect.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, c := range []struct{ workload, job string }{
		{"parboil-overhead", "sgemm/mysgemmNT"},
		{"remote-tiny", "tiny/bump"},
	} {
		res, r := shortRun(t, c.workload, false, c.job)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with %s corrupted: correct=%v failed=%d, want a failed, incorrect run",
				c.workload, c.job, res.Correct, res.Failed)
		}
		if r.t.mismatched == 0 {
			t.Errorf("%s: no mismatch counted", c.workload)
		}
	}
}

// TestSelfTimesPartitionChains checks, on traced runs, that the
// per-module self times of every root chain span add up to exactly its
// duration.
func TestSelfTimesPartitionChains(t *testing.T) {
	for _, name := range []string{"parboil-overhead", "remote-tiny"} {
		_, r := shortRun(t, name, true, "")
		spans := r.tr.Spans()
		byID := make(map[int64]*telemetry.Span, len(spans))
		kids := make(map[int64][]int64)
		for i := range spans {
			byID[spans[i].ID] = &spans[i]
			if p := spans[i].Parent; p != 0 {
				kids[p] = append(kids[p], spans[i].ID)
			}
		}
		roots := 0
		for i := range spans {
			root := &spans[i]
			if root.Parent != 0 || (root.Name != "chain" && root.Name != "native_chain") {
				continue
			}
			roots++
			var sum time.Duration
			for _, d := range partition(root, byID, kids) {
				sum += d
			}
			if sum != root.Duration() {
				t.Errorf("%s: root %d partitions into %v but lasts %v", name, root.ID, sum, root.Duration())
			}
		}
		if roots == 0 || r.tr.Dropped() > 0 {
			t.Errorf("%s: %d root chains traced, %d spans dropped", name, roots, r.tr.Dropped())
		}
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if acceldBin != "" {
		os.RemoveAll(filepath.Dir(acceldBin))
	}
	os.Exit(code)
}
