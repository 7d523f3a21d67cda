// Command perfbench is the repository benchmark: it drives the accelOS
// runtime through three named workloads, checks every chain's output,
// and prints the end-to-end metrics (timed run) or the per-layer
// metrics (traced run) as one JSON object on its last line.
//
// Usage, from the root of a checkout (run.sh builds this program and
// acceld first):
//
//	bash perfbench/run.sh --workload parboil-overhead --seed 1 --seconds 20 --trace 0
//
// BENCHMARK.json at the root of the repository documents the
// workloads and every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// catalog is BENCHMARK.json's list of metrics: each metric's unit, for
// the timed run's end-to-end metrics and the traced run's per-layer
// ones. It is the one place metric units are defined.
type catalog struct {
	EndToEnd []metricDoc `json:"end_to_end"`
	PerLayer []metricDoc `json:"per_layer"`
}

type metricDoc struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadCatalog(path string) (catalog, error) {
	var c catalog
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	return c, err
}

func units(docs []metricDoc) map[string]string {
	m := make(map[string]string, len(docs))
	for _, d := range docs {
		m[d.Name] = d.Unit
	}
	return m
}

func main() {
	name := flag.String("workload", "", "workload: parboil-overhead, heavy-light or remote-tiny")
	seed := flag.Int64("seed", 1, "seed for kernel order, arrival times and buffer contents")
	seconds := flag.Float64("seconds", 20, "measured seconds, split across the workload's phases")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: timed run printing end-to-end metrics")
	acceld := flag.String("acceld", "", "acceld binary built from this checkout")
	out := flag.String("out", "", "directory for run artefacts (sockets, segments, traces, records)")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil || *acceld == "" || *out == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -acceld <bin> -out <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of the checkout:", err)
		os.Exit(2)
	}
	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		acceld: *acceld, dir: *out, setups: 7, cat: cat,
	}
	rec := runRecord(o, w)
	res, _, err := runWorkload(o, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	recLine, _ := json.Marshal(map[string]any{"record": rec})
	resLine, _ := json.Marshal(res)
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
}

// runWorkload sets the workload up o.setups times (setup_s is the
// median; the last set-up is kept), warms it up, runs its rounds and
// computes its metrics. It also returns the runner, whose samples and
// spans the tests inspect.
func runWorkload(o options, w *workload) (*result, *runner, error) {
	goroutinesBefore := runtime.NumGoroutine()
	o.dir = daemonDir(o.dir)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, nil, err
	}
	var setupS []float64
	var e *env
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		ne, err := setup(o, w)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i == o.setups-1 {
			e = ne
		} else if _, err := ne.close(); err != nil {
			return nil, nil, fmt.Errorf("set-up teardown: %w", err)
		}
	}

	d := time.Duration(o.seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), d+4*chainTimeout)
	defer cancel()
	var tr *telemetry.Tracer
	if o.trace {
		tr = telemetry.New(1 << 18)
	}
	r := newRunner(e, o.seed, ctx, tr)
	r.warmup()
	// The process hosting the runtime's peak resident set, after
	// set-up and warm-up (a fixed amount of work) and after the rounds
	// (which grows with the chains a run gets through).
	status := "/proc/self/status"
	if e.d != nil {
		status = fmt.Sprintf("/proc/%d/status", e.d.cmd.Process.Pid)
	}
	setupRSS := procStatusMB(status, "VmHWM:")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.measure(d)
	runtime.ReadMemStats(&m1)
	runRSS := procStatusMB(status, "VmHWM:")

	var replans, launches int
	if e.rt != nil {
		st := e.rt.Stats()
		replans, launches = st.Replans, st.KernelsLaunched
	}
	dump, err := e.close()
	if err != nil {
		return nil, nil, err
	}
	leaked := settledGoroutines() - goroutinesBefore

	res := &result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = r.t.total()
	if r.t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed chain:", r.t.firstErr)
	}
	if !o.trace {
		r.endToEnd(res, units(o.cat.EndToEnd), median(setupS), setupRSS)
	} else if err := r.perLayer(res, o, dump, runRSS, leaked, float64(m1.Mallocs-m0.Mallocs), replans, launches); err != nil {
		return nil, nil, err
	}
	res.Correct = r.t.mismatched == 0 && res.Attempted > 0
	for name, m := range res.Metrics {
		if m.Unit == "" {
			return nil, nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not finite\n", name)
		}
	}
	return res, r, nil
}

// settledGoroutines waits briefly for exiting goroutines to finish and
// returns the live count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// slowdowns returns each tenant's individual slowdown: the geomean over
// its jobs of shared median / solo median, with both geomeans.
func (r *runner) slowdowns() (is, solo, shared []float64) {
	soloMed := r.soloAccel.medians()
	sharedMed := r.shared.medians()
	for _, t := range r.e.tenants {
		var ratios, so, sh []float64
		for _, s := range t.slots {
			a, b := soloMed[s.job.key], sharedMed[t.name+"|"+s.job.key]
			if a > 0 && b > 0 {
				ratios = append(ratios, b/a)
				so = append(so, a)
				sh = append(sh, b)
			}
		}
		is = append(is, geomean(ratios))
		solo = append(solo, geomean(so))
		shared = append(shared, geomean(sh))
	}
	return is, solo, shared
}

// overhead returns the geomean over jobs of the solo accelOS chain
// median over the native chain median, and the accelOS geomean.
func (r *runner) overhead() (ratio, accel, native float64) {
	a, n := r.soloAccel.medians(), r.soloNative.medians()
	var rs, as, ns []float64
	for _, k := range r.e.keys {
		if a[k] > 0 && n[k] > 0 {
			rs = append(rs, a[k]/n[k])
			as = append(as, a[k])
			ns = append(ns, n[k])
		}
	}
	return geomean(rs), geomean(as), geomean(ns)
}

func (r *runner) endToEnd(res *result, unit map[string]string, setupS, peakRSS float64) {
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unit[name]} }
	ratio, _, _ := r.overhead()
	is, _, _ := r.slowdowns()
	set("setup_s", setupS)
	set("peak_rss_mb", peakRSS)
	set("overhead_geomean", ratio)
	set("unfairness", metrics.Unfairness(is))
	set("stp", metrics.STP(is))
	set("antt", metrics.ANTT(is))
}

func (r *runner) perLayer(res *result, o options, dump string, peakRSS float64, leaked int, mallocs float64, replans, launches int) error {
	perLayer := units(o.cat.PerLayer)
	set := func(name string, v float64) { res.Metrics[name] = metric{v, perLayer[name]} }
	e := r.e

	// Offline JIT and launch costs of every distinct job.
	phys := soloPhys(r.soloPlans)
	var compile, transform, o1 time.Duration
	var added, o1Instrs int
	var nat, trans, ratios []float64
	for _, k := range e.keys {
		j := e.owner[k].job
		p := phys[j.k.Name]
		if p == 0 {
			// No plan seen (remote workloads plan inside the daemon):
			// one physical group per virtual group.
			g := j.nd.NumGroups()
			p = g[0] * g[1] * g[2]
		}
		c, err := measureLayers(r.tr, j, p)
		if err != nil {
			return err
		}
		compile += c.compile
		transform += c.transform
		o1 += c.o1
		added += c.instrsAdded
		o1Instrs += c.instrsO1
		nat = append(nat, ms(c.nativeLaunch))
		trans = append(trans, ms(c.transLaunch))
		ratios = append(ratios, float64(c.transLaunch)/float64(c.nativeLaunch))
	}
	set("clc.compile_ms", ms(compile))
	set("accelpass.transform_ms", ms(transform))
	set("accelpass.instrs_added", float64(added))
	set("passes.o1_ms", ms(o1))
	set("passes.o1_instrs", float64(o1Instrs))
	set("interp.native_launch_geomean_ms", geomean(nat))
	set("opencl.transformed_launch_geomean_ms", geomean(trans))
	set("opencl.transform_ratio_geomean", geomean(ratios))
	_, accel, native := r.overhead()
	set("opencl.native_chain_geomean_ms", native)

	// Event profiles of the chains through the workload's API layer.
	api := "accelos"
	if e.d != nil {
		api = "service"
	}
	set("opencl.write_ms", r.obs.median(api+".write_ms"))
	set("opencl.read_ms", r.obs.median(api+".read_ms"))
	set("accelos.create_program_ms", median(e.createProgramMS))
	set("accelos.queue_delay_ms", r.obs.median("accelos.queue_delay_ms"))
	set("accelos.launch_delay_ms", r.obs.median("accelos.launch_delay_ms"))
	set("accelos.run_ms", r.obs.median("accelos.run_ms"))
	if launches > 0 {
		set("accelos.replans_per_kernel", float64(replans)/float64(launches))
	} else {
		set("accelos.replans_per_kernel", 0)
	}
	var pw []float64
	for _, p := range r.soloPlans {
		pw = append(pw, float64(p.PhysWGs))
	}
	set("accelos.plan_phys_wgs", median(pw))
	is, solo, shared := r.slowdowns()
	for i := 0; i < 2; i++ {
		suffix := fmt.Sprintf("tenant%d", i)
		set("accelos.is_"+suffix, is[i])
		set("accelos.solo_geomean_ms_"+suffix, solo[i])
		set("accelos.shared_geomean_ms_"+suffix, shared[i])
	}
	attempted, failed := r.t.total()
	set("accelos.allocs_per_chain", mallocs/float64(max(attempted, 1)))
	set("accelos.goroutines_leaked", float64(leaked))

	// The service boundary: client-side calls, and the daemon's dump.
	set("service.dial_ms", median(e.dialMS))
	set("service.enqueue_us", r.obs.median("service.enqueue_us"))
	set("service.wait_ms", r.obs.median("service.wait_ms"))
	ds := parseDump(dump)
	for _, op := range []string{"enqueue-write", "enqueue-kernel", "enqueue-read"} {
		set("service.server_request_us."+op, meanQuantile(ds, "service_request_ns", "0.5", map[string]string{"op": op})/1e3)
	}
	set("service.slice_us", meanQuantile(ds, "slice_ns", "0.5", nil)/1e3)
	set("service.queue_delay_us", meanQuantile(ds, "queue_delay_ns", "0.5", nil)/1e3)
	set("service.rejections", sumSeries(ds, "service_rejections_total", nil))
	set("service.evictions", sumSeries(ds, "service_evictions_total", nil))
	wireChains := 0.0
	if e.d != nil {
		wireChains = float64(r.t.byLayer["service"])
	}
	var reqs float64
	for _, op := range []string{"enqueue-write", "enqueue-kernel", "enqueue-read"} {
		reqs += sumSeries(ds, "service_requests_total", map[string]string{"op": op})
	}
	set("wire.requests_per_chain", safeDiv(reqs, wireChains))
	set("wire.shm_bytes_per_chain", safeDiv(sumSeries(ds, "service_shm_bytes_total", nil), wireChains))

	// The benchmark itself.
	set("bench.accel_geomean_ms", accel)
	set("bench.chain_p50_ms", median(r.roundP50))
	set("bench.chain_p99_ms", median(r.roundP99))
	set("bench.chains_per_s", median(r.roundChainsPerS))
	set("bench.peak_rss_mb", peakRSS)
	set("bench.gen_lag_p99_ms", quantile(r.genLag, 0.99))
	var ov []float64
	traced, plain := r.soloTraced.medians(), r.soloPlain.medians()
	for k, v := range traced {
		if plain[k] > 0 {
			ov = append(ov, v/plain[k])
		}
	}
	set("bench.trace_overhead", geomean(ov))
	set("bench.chains_attempted", float64(attempted))
	set("bench.chains_failed", float64(failed))
	set("bench.failed_frac", safeDiv(float64(failed), float64(attempted)))
	for _, p := range []string{"solo", "shared", "open"} {
		set("bench.attempted."+p, float64(r.t.attempted[p]))
		set("bench.failed."+p, float64(r.t.failed[p]))
	}

	// Self time per module, from the spans.
	spans := r.tr.Spans()
	for prefix, root := range map[string]string{"trace.self_ms.": "chain", "trace.native_self_ms.": "native_chain"} {
		self, roots := selfTimes(spans, root)
		for name := range perLayer {
			if layer, ok := strings.CutPrefix(name, prefix); ok {
				set(name, safeDiv(ms(self[layer]), float64(roots)))
			}
		}
	}
	set("trace.spans_dropped", float64(r.tr.Dropped()))
	return writeTrace(r.tr, filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", e.w.name, o.seed)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTrace(tr *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runRecord describes the host and the code a run measured, so figures
// from different hosts or trees are never compared.
func runRecord(o options, w *workload) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     commit,
		"tree":       treeHash("."),
	}
}

// treeHash is a SHA-256 over the Go sources and module files under
// root, which identifies the code in checkouts that are not git
// repositories.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
