// Command perfbench is the repository's benchmark: one command that runs
// one of three workloads, checks the outputs, and prints every metric by
// name and unit as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload lucene-profile --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - lucene-profile: the profiling phase of Lucene (core.ProfileApp) at
//     the paper defaults, then an off-line re-analysis of its artifacts.
//   - cassandra-production: Cassandra WI under G1, and under NG2C with the
//     POLM2 profile built during set-up (core.RunApp).
//   - fleet: two peered plan daemons (planserver.Server) on loopback
//     listeners under an open-loop schedule of evidence uploads and
//     conditional plan fetches sent through fleetclient.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics: the run
// measures the same untraced window, then runs a traced composition of
// the layers (or a traced stretch of the fleet schedule), checks that it
// reproduces the untraced outputs, and reports the difference in host
// time as the tracing overhead. README.md lists every metric.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// nameUnit names a metric and its unit.
type nameUnit struct{ name, unit string }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, in the
// order of BENCHMARK.json.
var endToEnd = []nameUnit{
	{"setup_s", "s"},
	{"host_maxrss_mb", "MB"},
	{"op_cpu_calib", "calib"},
	{"sim_snapshot_mb", "MB"},
}

// timedLayers lists the traced timings reported as per-layer metrics: a
// call count, host seconds (self time when self is set, total time
// otherwise) and, for a timing with a tail prefix, the median and tail of
// single calls as <tail>_p50_us and <tail>_tail_us.
var timedLayers = []struct {
	span, calls, secs string
	self              bool
	tail              string
}{
	{"jvm.run", "jvm.run_calls", "jvm.mutator_self_s", true, ""},
	{"gc.allocate", "gc.allocate_calls", "gc.allocate_s", false, "gc.allocate"},
	{"gc.cycle", "gc.cycles", "gc.cycle_s", true, "gc.cycle"},
	{"recorder.alloc", "recorder.alloc_calls", "recorder.alloc_s", false, "recorder.alloc"},
	{"recorder.cycle", "recorder.cycle_calls", "recorder.cycle_self_s", true, ""},
	{"recorder.close", "recorder.close_calls", "recorder.close_s", false, ""},
	{"dumper.snapshot", "dumper.snapshots", "dumper.snapshot_s", false, "dumper.snapshot"},
	{"analyzer.analyze", "analyzer.analyze_calls", "analyzer.analyze_s", false, ""},
	{"instrument.apply", "instrument.apply_calls", "instrument.apply_s", false, ""},
	{"core.profile", "core.profile_calls", "core.profile_s", false, ""},
	{"core.run", "core.run_calls", "core.run_s", false, ""},
	{"fleetclient.upload", "fleetclient.upload_calls", "fleetclient.upload_s", false, "fleetclient.upload"},
	{"fleetclient.fetch", "fleetclient.fetch_calls", "fleetclient.fetch_s", false, "fleetclient.fetch"},
	{"planserver.upload", "planserver.upload_handler_calls", "planserver.upload_handler_s", false, "planserver.upload_handler"},
	{"planserver.plan", "planserver.plan_handler_calls", "planserver.plan_handler_s", false, "planserver.plan_handler"},
	{"planserver.sync", "planserver.sync_handler_calls", "planserver.sync_handler_s", false, ""},
	{"planserver.sync_peers", "planserver.sync_calls", "planserver.sync_s", false, ""},
}

// countLayers lists the per-layer metrics that are not traced timings.
var countLayers = []nameUnit{
	{"core.run_g1_cpu_ms", "ms"},
	{"core.run_polm2_cpu_ms", "ms"},
	{"analyzer.reanalyze_cpu_ms", "ms"},
	{"fleetclient.upload_cpu_ms", "ms"},
	{"jvm.allocs", "count"},
	{"jvm.gen_switches", "count"},
	{"gc.cycle_us_per_cycle", "us"},
	{"gc.sim_copied_mb", "MB"},
	{"gc.sim_promoted_mb", "MB"},
	{"gc.sim_pause_s", "s"},
	{"recorder.mb", "MB"},
	{"dumper.pages", "count"},
	{"dumper.nonneed_ratio", "ratio"},
	{"analyzer.sites", "count"},
	{"analyzer.instrumented_ratio", "ratio"},
	{"analyzer.conflicts", "count"},
	{"instrument.rewritten_locations", "count"},
	{"fleetclient.self_s", "s"},
	{"fleetclient.decoded_mb", "MB"},
	{"fleetclient.upload_plan_unchanged_ratio", "ratio"},
	{"fleetclient.not_modified_ratio", "ratio"},
	{"planserver.uploads", "count"},
	{"planserver.merges", "count"},
	{"planserver.coalesced_ratio", "ratio"},
	{"planserver.sync_useful_ratio", "ratio"},
	{"profilestore.files", "count"},
	{"profilestore.mb", "MB"},
	{"profilestore.space_amp", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"gen.upload_p50_ms", "ms"},
	{"gen.upload_tail_ms", "ms"},
	{"gen.fetch_p50_ms", "ms"},
	{"gen.fetch_tail_ms", "ms"},
	{"sim.polm2_pause_p99_ms", "ms"},
	{"sim.g1_pause_p99_ms", "ms"},
	{"sim.warm_ops", "count"},
	{"sim.max_mem_mb", "MB"},
	{"host.go_alloc_mb", "MB"},
	{"host.go_gc_cycles", "count"},
	{"host.go_gc_cpu_fraction", "ratio"},
	{"host.calib_ms", "ms"},
	{"host.op_cpu_ms", "ms"},
	{"host.probe_ms", "ms"},
	{"host.gomaxprocs", "count"},
	{"host.nproc", "count"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"error_rate", "ratio"},
}

// perLayer returns every per-layer metric name with its unit, in the
// order of BENCHMARK.json.
func perLayer() []nameUnit {
	var out []nameUnit
	for _, l := range timedLayers {
		out = append(out, nameUnit{l.calls, "count"}, nameUnit{l.secs, "s"})
		if l.tail != "" {
			out = append(out, nameUnit{l.tail + "_p50_us", "us"}, nameUnit{l.tail + "_tail_us", "us"})
		}
	}
	return append(out, countLayers...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(r *run) error{
	"lucene-profile":       func(r *run) error { return runLuceneProfile(r, defaultSimConfig()) },
	"cassandra-production": func(r *run) error { return runCassandraProduction(r, defaultSimConfig()) },
	"fleet":                func(r *run) error { return runFleet(r, defaultFleetConfig()) },
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool   // run the traced composition after the window
	outDir   string // spans and pinned simulated outputs
	workRoot string // scratch for this invocation, removed at exit

	tr         *Tracer
	setupTimes []time.Duration
	// ops are the CPU times of the workload's operations (README.md
	// names the operation per workload), and probes the CPU times of the
	// calibration probes run among them; op_cpu_calib is the ratio of
	// their medians.
	ops, probes []time.Duration
	// tracedHost and untracedHost time the same work with and without
	// tracing; their difference is the tracing overhead.
	tracedHost, untracedHost time.Duration
	// rssMB is the peak RSS when the untraced window ended, before the
	// traced run and its spans add to it.
	rssMB float64

	attempted, failed int
	checks            int
	violations        []string

	// sims and digests hold simulated outputs, which repeat exactly for
	// a seed: numbers (some also per-layer metrics) and sha256 digests of
	// whole outputs such as a profile's JSON.
	sims    map[string]float64
	digests map[string]string
	layer   map[string]metric
}

func newRun(workload string, seed int64, seconds float64, traced bool, outDir string) (*run, error) {
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &run{
		workload: workload, seed: seed, seconds: seconds, traced: traced, outDir: outDir, workRoot: work,
		tr: NewTracer(), sims: make(map[string]float64), digests: make(map[string]string), layer: make(map[string]metric),
	}, nil
}

// workDir names a directory for one step's artifacts under the
// invocation's scratch root.
func (r *run) workDir(name string) string {
	return filepath.Join(r.workRoot, name)
}

// setup runs the workload's set-up reps times, timing each with timer
// (threadTime or processTime); setup_s is their median. The workload
// keeps the last set-up's state.
func (r *run) setup(reps int, timer func(func() error) (time.Duration, error), fn func(rep int) error) error {
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, err := timer(func() error { return fn(i) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, d)
	}
	return nil
}

// op accounts one measured operation; a failed one is counted and not
// kept.
func (r *run) op(into *[]time.Duration, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	*into = append(*into, d)
}

// probe runs one calibration probe in the window.
func (r *run) probe() {
	runtime.GC()
	r.probes = append(r.probes, calibProbe())
}

// layerMedian reports the median of an untraced window's timings as a
// per-layer metric in milliseconds.
func (r *run) layerMedian(name string, d []time.Duration) {
	r.layer[name] = metric{ms(median(d)), "ms"}
}

// endWindow closes the untraced window: host is the host time the traced
// run will be compared with, and the peak RSS is read now.
func (r *run) endWindow(host time.Duration) {
	r.untracedHost = host
	r.rssMB = maxRSSMB()
}

// check records one output check; a violated check fails the run.
func (r *run) check(what string, ok bool) {
	r.checks++
	if !ok {
		r.violations = append(r.violations, what)
	}
}

func (r *run) close() { os.RemoveAll(r.workRoot) }

func median(d []time.Duration) time.Duration {
	return Percentile(append([]time.Duration(nil), d...), 50)
}

// endToEndMetrics reports the untraced measurements.
func (r *run) endToEndMetrics() map[string]metric {
	m := make(map[string]metric)
	m["setup_s"] = metric{median(r.setupTimes).Seconds(), "s"}
	m["host_maxrss_mb"] = metric{r.rssMB, "MB"}
	m["op_cpu_calib"] = metric{ratio(float64(median(r.ops)), float64(median(r.probes))), "calib"}
	m["sim_snapshot_mb"] = metric{r.sims["sim_snapshot_mb"], "MB"}
	return m
}

// perLayerMetrics reports the traced run, the host counters and the
// simulated outputs; metrics a workload does not exercise read 0.
func (r *run) perLayerMetrics(calibMS float64) map[string]metric {
	m := make(map[string]metric)
	for _, l := range perLayer() {
		m[l.name] = metric{0, l.unit}
	}
	tm := r.tr.Timings()
	for _, l := range timedLayers {
		t := tm[l.span]
		secs := t.Total
		if l.self {
			secs = t.Self
		}
		m[l.calls] = metric{float64(t.Count), "count"}
		m[l.secs] = metric{secs.Seconds(), "s"}
		if l.tail != "" {
			m[l.tail+"_p50_us"] = metric{us(t.P50), "us"}
			m[l.tail+"_tail_us"] = metric{us(t.Tail), "us"}
		}
	}
	if c := tm["gc.cycle"].Count; c > 0 {
		m["gc.cycle_us_per_cycle"] = metric{us(tm["gc.cycle"].Self) / float64(c), "us"}
	}
	m["fleetclient.self_s"] = metric{(tm["fleetclient.upload"].Self + tm["fleetclient.fetch"].Self).Seconds(), "s"}
	for name, v := range r.layer {
		m[name] = v
	}
	for name, v := range r.sims {
		if _, ok := m[name]; ok {
			m[name] = metric{v, m[name].Unit}
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["host.go_alloc_mb"] = metric{float64(mem.TotalAlloc) / (1 << 20), "MB"}
	m["host.go_gc_cycles"] = metric{float64(mem.NumGC), "count"}
	m["host.go_gc_cpu_fraction"] = metric{mem.GCCPUFraction, "ratio"}
	m["host.calib_ms"] = metric{calibMS, "ms"}
	m["host.op_cpu_ms"] = metric{ms(median(r.ops)), "ms"}
	m["host.probe_ms"] = metric{ms(median(r.probes)), "ms"}
	m["host.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
	m["host.nproc"] = metric{float64(runtime.NumCPU()), "count"}
	m["trace.overhead_s"] = metric{(r.tracedHost - r.untracedHost).Seconds(), "s"}
	m["trace.spans"] = metric{float64(len(r.tr.Spans())), "count"}
	m["error_rate"] = metric{ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	return m
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// simRecord is the simulated outputs of one workload and seed.
type simRecord struct {
	Values  map[string]float64 `json:"values"`
	Digests map[string]string  `json:"digests"`
}

//go:embed golden_sims.json
var goldenJSON []byte

// goldenSims is the simulated outputs of the default workloads for the
// seeds the benchmark was built and checked with, keyed "workload/seed".
// A change to the model changes them and fails the run in any checkout.
func goldenSims() map[string]simRecord {
	var g map[string]simRecord
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(err) // the embedded file is checked by TestGoldenSims
	}
	return g
}

// agrees reports whether every simulated output of got that want also
// holds is the same in both, and, when complete is set, whether got
// holds every output of want.
func (got simRecord) agrees(want simRecord, complete bool) bool {
	for k, v := range got.Values {
		if w, ok := want.Values[k]; ok && w != v {
			return false
		}
	}
	for k, v := range got.Digests {
		if w, ok := want.Digests[k]; ok && w != v {
			return false
		}
	}
	if complete {
		for k := range want.Values {
			if _, ok := got.Values[k]; !ok {
				return false
			}
		}
		for k := range want.Digests {
			if _, ok := got.Digests[k]; !ok {
				return false
			}
		}
	}
	return true
}

// pinSims compares the run's simulated outputs with the golden record for
// its workload and seed. An untraced run computes only part of them (the
// traced composition adds the rest), so it is compared on that part. A
// seed without a golden record is compared with what earlier runs left
// in outDir, and what this run adds is recorded there for later runs:
// simulated results must repeat exactly.
func (r *run) pinSims(golden map[string]simRecord) error {
	got := simRecord{r.sims, r.digests}
	if want, ok := golden[fmt.Sprintf("%s/%d", r.workload, r.seed)]; ok {
		r.check("simulated outputs match the golden record in perfbench/golden_sims.json", got.agrees(want, r.traced))
		return nil
	}
	dir := filepath.Join(r.outDir, "sims")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.workload, r.seed))
	pinned := simRecord{map[string]float64{}, map[string]string{}}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &pinned); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		r.check(fmt.Sprintf("simulated outputs match the earlier runs pinned in %s", path), got.agrees(pinned, false))
	case !os.IsNotExist(err):
		return err
	}
	added := false
	for k, v := range got.Values {
		if _, ok := pinned.Values[k]; !ok {
			pinned.Values[k], added = v, true
		}
	}
	for k, v := range got.Digests {
		if _, ok := pinned.Digests[k]; !ok {
			pinned.Digests[k], added = v, true
		}
	}
	if !added {
		return nil
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, mustJSON(pinned), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fingerprint identifies the host a result was measured on, so results
// from different hosts are never compared.
func fingerprint(calibMS float64) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"calib_ms":   calibMS,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 15, "length of the measured window")
		traced  = fs.Int("trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics")
		out     = fs.String("out", ".bench_out", "directory for spans and pinned simulated outputs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*wl]
	if !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	res, err := execute(*wl, drive, *seed, *seconds, *traced == 1, *out, goldenSims(), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs one workload and assembles its result; progress and the
// host fingerprint go to stdout ahead of the result line. golden holds the
// expected simulated outputs of the workloads as drive runs them.
func execute(wl string, drive func(*run) error, seed int64, seconds float64, traced bool, outDir string, golden map[string]simRecord, stdout io.Writer) (*result, error) {
	calibMS := calibrate()
	fp, _ := json.Marshal(map[string]any{"fingerprint": fingerprint(calibMS)})
	fmt.Fprintln(stdout, string(fp))

	r, err := newRun(wl, seed, seconds, traced, outDir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := drive(r); err != nil {
		return nil, err
	}
	if err := r.tr.checkStack(); err != nil {
		return nil, err
	}
	if err := r.pinSims(golden); err != nil {
		return nil, err
	}
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", wl, seed))
		if err := r.tr.WriteFile(path); err != nil {
			return nil, err
		}
	}
	for _, v := range r.violations {
		fmt.Fprintf(stdout, "check failed: %s\n", v)
	}
	summary := map[string]any{
		"workload": wl, "seed": seed, "checks": r.checks, "violations": len(r.violations),
		"setup_s": secondsOf(r.setupTimes), "ops_s": secondsOf(r.ops), "probes_s": secondsOf(r.probes),
		"untraced_host_s": r.untracedHost.Seconds(), "sims": simRecord{r.sims, r.digests},
	}
	if traced {
		summary["traced_host_s"] = r.tracedHost.Seconds()
		summary["tracing_overhead_s"] = (r.tracedHost - r.untracedHost).Seconds()
	}
	line, _ := json.Marshal(summary)
	fmt.Fprintln(stdout, string(line))
	res := &result{Correct: len(r.violations) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if traced {
		res.Metrics = r.perLayerMetrics(calibMS)
	} else {
		res.Metrics = r.endToEndMetrics()
	}
	return res, nil
}

// secondsOf lists durations in seconds, capped at the first 50.
func secondsOf(d []time.Duration) []float64 {
	var out []float64
	for _, v := range d[:min(len(d), 50)] {
		out = append(out, v.Seconds())
	}
	return out
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
