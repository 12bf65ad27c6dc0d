package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/dumper"
	"polm2/internal/gc"
	"polm2/internal/heap"
	"polm2/internal/instrument"
	"polm2/internal/jvm"
	"polm2/internal/metrics"
	"polm2/internal/recorder"
	"polm2/internal/simclock"
	"polm2/internal/snapshot"
	"polm2/internal/workload"
)

// simConfig sizes the two simulation workloads. defaultSimConfig is the
// paper's setup; the tests shrink the simulated lengths.
type simConfig struct {
	ProfileLen time.Duration // simulated length of a profiling run
	RunLen     time.Duration // simulated length of a production run
	SetupReps  int           // set-ups per run; setup_s is their median
	// InputLen is the simulated length of the profile lucene-profile's
	// set-up builds for the re-analysis that follows each measured
	// profile.
	InputLen time.Duration
}

func defaultSimConfig() simConfig {
	return simConfig{
		ProfileLen: core.DefaultProfilingDuration,
		RunLen:     core.PaperRunDuration,
		SetupReps:  3,
		InputLen:   5 * time.Minute,
	}
}

// Layer wrappers. Each times the calls the benchmark's composition makes
// into one layer's public API and records them as spans on the tracer.

// timedCollector times every Allocate and ForceCollect. A call during
// which the collector completed a GC cycle is kept as a "gc.cycle" span
// (the Recorder's cycle listener nests inside it); any other call is an
// aggregated "gc.allocate" leaf.
type timedCollector struct {
	gc.Collector
	tr *Tracer
}

func (c *timedCollector) Allocate(size uint32, site heap.SiteID, target heap.GenID) (*heap.Object, error) {
	before := c.Collector.Cycles()
	c.tr.Push("gc.cycle")
	obj, err := c.Collector.Allocate(size, site, target)
	c.tr.Pop(c.Collector.Cycles() != before, "gc.allocate")
	return obj, err
}

func (c *timedCollector) ForceCollect() error {
	c.tr.Push("gc.cycle")
	err := c.Collector.ForceCollect()
	c.tr.Pop(true, "")
	return err
}

// timedPretenuring is timedCollector over a collector with NG2C's
// pretenuring API, so instrument.Apply can drive it.
type timedPretenuring struct {
	*timedCollector
	pret gc.Pretenuring
}

func (c *timedPretenuring) NewGeneration() heap.GenID { return c.pret.NewGeneration() }
func (c *timedPretenuring) Generations() int          { return c.pret.Generations() }

func wrapCollector(col gc.Collector, tr *Tracer) gc.Collector {
	tc := &timedCollector{Collector: col, tr: tr}
	if pret, ok := col.(gc.Pretenuring); ok {
		return &timedPretenuring{timedCollector: tc, pret: pret}
	}
	return tc
}

// timedSink times the Dumper's snapshots behind the Recorder.
type timedSink struct {
	inner recorder.SnapshotSink
	tr    *Tracer
}

func (s *timedSink) Snapshot(cycle uint64) error {
	s.tr.Push("dumper.snapshot")
	err := s.inner.Snapshot(cycle)
	s.tr.Pop(true, "")
	return err
}

// span runs fn inside a kept span on the simulation stack.
func span(tr *Tracer, name string, fn func() error) error {
	tr.Push(name)
	defer tr.Pop(true, "")
	return fn()
}

// profileOutcome is what one profiling run produced.
type profileOutcome struct {
	Profile   *analyzer.Profile
	Snapshots []*snapshot.Snapshot
	Pauses    []gc.Pause
	Heap      heap.Stats
}

// composeProfile is core.ProfileApp rebuilt from the layers' public
// constructors, with every layer boundary timed: NG2C under a Recorder
// streaming allocation records into dir and a Dumper snapshotting after
// every cycle, then the Analyzer over both.
func composeProfile(tr *Tracer, app core.App, wl string, seed int64, length time.Duration, dir string) (*profileOutcome, error) {
	out := &profileOutcome{}
	err := span(tr, "core.profile", func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		clock := simclock.New()
		col, err := core.NewCollector(core.CollectorNG2C, clock, core.ScaledGeometry(core.DefaultScale), core.ScaledCostModel(core.DefaultScale))
		if err != nil {
			return err
		}
		tc := wrapCollector(col, tr)
		vm := jvm.New(tc)
		criu := dumper.New(vm.Heap(), clock, dumper.Config{Cost: core.ScaledDumpCostModel(core.DefaultScale), ChargeClock: true})
		rec, err := recorder.New(recorder.Config{Dir: dir}, vm.Heap(), vm.Sites(), &timedSink{inner: criu, tr: tr})
		if err != nil {
			return err
		}
		// The same hook and listener Recorder.Attach registers, timed.
		vm.AddAllocHook(func(site heap.SiteID, obj *heap.Object) {
			t0 := time.Now()
			rec.RecordAlloc(site, obj)
			tr.Leaf("recorder.alloc", time.Since(t0))
		})
		tc.OnCycleEnd(func(cycle uint64, live *heap.LiveSet) {
			tr.Push("recorder.cycle")
			rec.CycleEnd(cycle, live)
			tr.Pop(true, "")
		})
		env := core.NewEnv(vm, clock, workload.NewRand(seed), length)
		if err := span(tr, "jvm.run", func() error { return app.Run(env, wl) }); err != nil {
			return fmt.Errorf("profiling run of %s/%s: %w", app.Name(), wl, err)
		}
		if err := span(tr, "recorder.close", rec.Close); err != nil {
			return err
		}
		out.Snapshots = criu.Snapshots()
		out.Pauses = col.Pauses()
		out.Heap = vm.Heap().Stats()
		return span(tr, "analyzer.analyze", func() error {
			out.Profile, err = analyzer.Analyze(dir, out.Snapshots, analyzer.Options{App: app.Name(), Workload: wl})
			return err
		})
	})
	return out, err
}

// runOutcome is what one production run produced, in the terms
// core.RunResult reports.
type runOutcome struct {
	Pauses      []gc.Pause
	WarmP99     time.Duration
	WarmOps     int64
	MaxMemBytes uint64
	GenSwitches uint64
	Rewritten   int
	Heap        heap.Stats
}

// composeRun is core.RunApp rebuilt from the layers' public constructors
// with every layer boundary timed. A nil profile runs the unmodified
// application. warmup is the start of the run the warm figures ignore, as
// core.RunResult.Warmup reports it.
func composeRun(tr *Tracer, app core.App, wl, collector string, profile *analyzer.Profile, seed int64, length, warmup time.Duration) (*runOutcome, error) {
	out := &runOutcome{}
	err := span(tr, "core.run", func() error {
		clock := simclock.New()
		col, err := core.NewCollector(collector, clock, core.ScaledGeometry(core.DefaultScale), core.ScaledCostModel(core.DefaultScale))
		if err != nil {
			return err
		}
		tc := wrapCollector(col, tr)
		vm := jvm.New(tc)
		if profile != nil {
			pret, ok := tc.(gc.Pretenuring)
			if !ok {
				return fmt.Errorf("collector %s cannot apply a pretenuring profile", collector)
			}
			var plan *instrument.Plan
			if err := span(tr, "instrument.apply", func() error {
				plan, err = instrument.Apply(profile, pret)
				return err
			}); err != nil {
				return err
			}
			out.Rewritten = plan.RewrittenLocations()
			vm.SetPlan(plan)
			vm.SetPretenureCostPerByte(core.PretenureCostPerByte(core.DefaultScale))
		}
		env := core.NewEnv(vm, clock, workload.NewRand(seed), length)
		if err := span(tr, "jvm.run", func() error { return app.Run(env, wl) }); err != nil {
			return fmt.Errorf("production run of %s/%s under %s: %w", app.Name(), wl, collector, err)
		}
		out.Pauses = col.Pauses()
		out.GenSwitches = vm.GenSwitches()
		out.Heap = vm.Heap().Stats()
		out.MaxMemBytes = out.Heap.MaxCommittedBytes
		var warm metrics.Sample
		for _, p := range out.Pauses {
			if p.Start >= warmup {
				warm.Add(p.Duration)
			}
		}
		out.WarmP99 = warm.Percentile(99)
		for _, n := range env.OpsSeries().Slice(warmup, length) {
			out.WarmOps += n
		}
		return nil
	})
	return out, err
}

func snapshotMB(snaps []*snapshot.Snapshot) float64 {
	var b uint64
	for _, s := range snaps {
		b += s.SizeBytes
	}
	return float64(b) / (1 << 20)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // profiles and pause lists always marshal
	}
	return b
}

// dirBytes sums the sizes of the regular files under dir and counts them.
func dirBytes(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// processTime runs fn and returns the host CPU time (user plus system)
// the whole process spent meanwhile, for work spread over goroutines
// (a fleet set-up serves its own uploads).
func processTime(fn func() error) (time.Duration, error) {
	t0 := processCPU()
	err := fn()
	return processCPU() - t0, err
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadTime runs fn on a locked OS thread and returns that thread's CPU
// time: the host cost of a single-threaded simulation, including the GC
// assists it pays, but not the collector's background workers on the
// other CPU. Unlike wall time it does not count time the host gives to
// other tenants, which on a shared machine is most of the run-to-run
// variation.
func threadTime(fn func() error) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	err := fn()
	return threadCPU() - t0, err
}

// minIters is the fewest measured iterations of a simulation workload, so
// that a median is always the middle of at least three operations, however
// slow the host.
const minIters = 3

// iterate runs fn at least minIters times and until the window has lasted
// seconds. Each iteration starts from a collected Go heap, so garbage one
// leaves behind does not shift the next one's costs or the peak RSS.
func iterate(seconds float64, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC()
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// runLuceneProfile is the lucene-profile workload: the profiling phase of
// Lucene at the paper defaults through core.ProfileApp, and an off-line
// re-analysis of the records and snapshots of a shorter profile the
// set-up builds.
func runLuceneProfile(r *run, cfg simConfig) error {
	app := lucene.New()
	seed := core.DeriveSeed(r.seed, "lucene-profile")
	profile := func(length time.Duration, dir string) (*core.ProfileResult, error) {
		return core.ProfileApp(app, lucene.Workload, core.ProfileOptions{Seed: seed, Duration: length, RecordsDir: dir})
	}

	// The set-up builds the re-analysis inputs: a records directory and
	// snapshots, and the profile the re-analysis must reproduce.
	var input *core.ProfileResult
	err := r.setup(cfg.SetupReps, threadTime, func(rep int) error {
		pr, err := profile(cfg.InputLen, r.workDir(fmt.Sprintf("input-%d", rep)))
		if err != nil {
			return err
		}
		if input != nil {
			r.check("set-up profiles are identical", bytes.Equal(mustJSON(pr.Profile), mustJSON(input.Profile)))
			if err := os.RemoveAll(input.RecordsDir); err != nil {
				return err
			}
		}
		input = pr
		return nil
	})
	if err != nil {
		return err
	}
	inputJSON := mustJSON(input.Profile)
	r.digests["input_profile_sha256"] = sha256Hex(inputJSON)

	var ref *core.ProfileResult
	var refJSON []byte
	var reanalyses []time.Duration
	err = iterate(r.seconds, func(i int) error {
		dir := r.workDir(fmt.Sprintf("profile-%d", i))
		var pr *core.ProfileResult
		r.probe()
		d, err := threadTime(func() (err error) {
			pr, err = profile(cfg.ProfileLen, dir)
			return err
		})
		r.op(&r.ops, d, err)
		if err != nil {
			return err
		}
		if ref == nil {
			ref, refJSON = pr, mustJSON(pr.Profile)
			r.check("the profile instruments at least one site", pr.Profile.InstrumentedSites() > 0)
			r.sims["sim_snapshot_mb"] = snapshotMB(pr.Snapshots)
			r.digests["profile_sha256"] = sha256Hex(refJSON)
		} else {
			r.check("profiling iterations produce identical profiles", bytes.Equal(mustJSON(pr.Profile), refJSON))
			r.check("profiling iterations produce identical snapshot sizes", snapshotMB(pr.Snapshots) == snapshotMB(ref.Snapshots))
		}
		r.probe()
		runtime.GC()
		var again *analyzer.Profile
		d, err = threadTime(func() (err error) {
			again, err = analyzer.Analyze(input.RecordsDir, input.Snapshots, analyzer.Options{App: app.Name(), Workload: lucene.Workload})
			return err
		})
		r.op(&reanalyses, d, err)
		if err != nil {
			return err
		}
		r.check("off-line re-analysis reproduces the set-up profile", bytes.Equal(mustJSON(again), inputJSON))
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	r.probe()
	r.endWindow(median(r.ops))
	r.layerMedian("analyzer.reanalyze_cpu_ms", reanalyses)
	if !r.traced {
		return nil
	}

	runtime.GC()
	dir := r.workDir("traced")
	var out *profileOutcome
	d, err := threadTime(func() (err error) {
		out, err = composeProfile(r.tr, app, lucene.Workload, seed, cfg.ProfileLen, dir)
		return err
	})
	r.attempted++
	if err != nil {
		return err
	}
	r.tracedHost = d
	r.check("traced composition reproduces ProfileApp's profile JSON", bytes.Equal(mustJSON(out.Profile), refJSON))
	r.check("traced composition reproduces ProfileApp's snapshots", snapshotMB(out.Snapshots) == snapshotMB(ref.Snapshots) && len(out.Snapshots) == len(ref.Snapshots))
	_, recBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.layer["recorder.mb"] = metric{float64(recBytes) / (1 << 20), "MB"}
	r.profileLayers(out)
	r.simLayers(out.Pauses, out.Heap.TotalAllocatedObjects)
	return os.RemoveAll(dir)
}

// runCassandraProduction is the cassandra-production workload: Cassandra
// WI unmodified under G1 and under NG2C with the POLM2 profile built in
// set-up, both through core.RunApp.
func runCassandraProduction(r *run, cfg simConfig) error {
	app := cassandra.New()
	wl := cassandra.WorkloadWI
	profSeed := core.DeriveSeed(r.seed, "cassandra-production", "profile")
	runSeed := core.DeriveSeed(r.seed, "cassandra-production", "run")

	var prof *core.ProfileResult
	err := r.setup(cfg.SetupReps, threadTime, func(rep int) error {
		dir := r.workDir(fmt.Sprintf("profile-%d", rep))
		pr, err := core.ProfileApp(app, wl, core.ProfileOptions{Seed: profSeed, Duration: cfg.ProfileLen, RecordsDir: dir})
		if err != nil {
			return err
		}
		if prof != nil {
			r.check("set-up profiles are identical", bytes.Equal(mustJSON(pr.Profile), mustJSON(prof.Profile)))
		}
		prof = pr
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	r.check("the profile instruments at least one site", prof.Profile.InstrumentedSites() > 0)
	r.sims["sim_snapshot_mb"] = snapshotMB(prof.Snapshots)
	r.digests["profile_sha256"] = sha256Hex(mustJSON(prof.Profile))

	// The operation is one G1 run and one NG2C+POLM2 run; each
	// collector's own times are reported per layer.
	var g1First, polm2First *core.RunResult
	var g1Times, polm2Times []time.Duration
	err = iterate(r.seconds, func(i int) error {
		var g1, polm2 *core.RunResult
		var dPOLM2 time.Duration
		r.probe()
		dG1, err := threadTime(func() (err error) {
			g1, err = core.RunApp(app, wl, core.CollectorG1, core.PlanNone, nil, core.RunOptions{Seed: runSeed, Duration: cfg.RunLen})
			return err
		})
		if err == nil {
			r.probe()
			runtime.GC()
			dPOLM2, err = threadTime(func() (err error) {
				polm2, err = core.RunApp(app, wl, core.CollectorNG2C, core.PlanPOLM2, prof.Profile, core.RunOptions{Seed: runSeed, Duration: cfg.RunLen})
				return err
			})
		}
		r.op(&r.ops, dG1+dPOLM2, err)
		if err != nil {
			return err
		}
		g1Times, polm2Times = append(g1Times, dG1), append(polm2Times, dPOLM2)
		if g1First == nil {
			g1First, polm2First = g1, polm2
			r.check("NG2C+POLM2 warm pause p99 is below G1's", polm2.WarmPauses.Percentile(99) < g1.WarmPauses.Percentile(99))
			r.sims["sim.polm2_pause_p99_ms"] = ms(polm2.WarmPauses.Percentile(99))
			r.sims["sim.g1_pause_p99_ms"] = ms(g1.WarmPauses.Percentile(99))
			r.sims["sim.warm_ops"] = float64(polm2.WarmOps)
			r.sims["sim.max_mem_mb"] = float64(polm2.MaxMemoryBytes) / (1 << 20)
			r.sims["jvm.gen_switches"] = float64(polm2.GenSwitches)
			r.digests["g1_pauses_sha256"] = sha256Hex(mustJSON(g1.Pauses))
			r.digests["polm2_pauses_sha256"] = sha256Hex(mustJSON(polm2.Pauses))
			return nil
		}
		r.check("production iterations produce identical G1 pauses", bytes.Equal(mustJSON(g1.Pauses), mustJSON(g1First.Pauses)))
		r.check("production iterations produce identical NG2C+POLM2 pauses", bytes.Equal(mustJSON(polm2.Pauses), mustJSON(polm2First.Pauses)))
		return nil
	})
	if err != nil {
		return err
	}

	r.probe()
	r.endWindow(median(r.ops))
	r.layerMedian("core.run_g1_cpu_ms", g1Times)
	r.layerMedian("core.run_polm2_cpu_ms", polm2Times)
	if !r.traced {
		return nil
	}

	runtime.GC()
	var g1, polm2 *runOutcome
	d, err := threadTime(func() (err error) {
		if g1, err = composeRun(r.tr, app, wl, core.CollectorG1, nil, runSeed, cfg.RunLen, g1First.Warmup); err != nil {
			return err
		}
		polm2, err = composeRun(r.tr, app, wl, core.CollectorNG2C, prof.Profile, runSeed, cfg.RunLen, polm2First.Warmup)
		return err
	})
	r.attempted++
	if err != nil {
		return err
	}
	r.tracedHost = d
	r.check("traced composition reproduces RunApp's G1 pause list", bytes.Equal(mustJSON(g1.Pauses), mustJSON(g1First.Pauses)))
	r.check("traced composition reproduces RunApp's NG2C+POLM2 pause list", bytes.Equal(mustJSON(polm2.Pauses), mustJSON(polm2First.Pauses)))
	r.check("traced composition reproduces RunApp's warm figures",
		polm2.WarmP99 == polm2First.WarmPauses.Percentile(99) && polm2.WarmOps == polm2First.WarmOps &&
			polm2.GenSwitches == polm2First.GenSwitches && polm2.MaxMemBytes == polm2First.MaxMemoryBytes)
	r.layer["instrument.rewritten_locations"] = metric{float64(polm2.Rewritten), "count"}
	r.simLayers(append(append([]gc.Pause(nil), g1.Pauses...), polm2.Pauses...), g1.Heap.TotalAllocatedObjects+polm2.Heap.TotalAllocatedObjects)
	return nil
}

// profileLayers reports the Dumper's and Analyzer's outputs of a traced
// profiling run.
func (r *run) profileLayers(out *profileOutcome) {
	var pages, noNeed int
	for _, s := range out.Snapshots {
		pages += len(s.Pages)
		noNeed += len(s.NoNeed)
	}
	r.layer["dumper.pages"] = metric{float64(pages), "count"}
	r.layer["dumper.nonneed_ratio"] = metric{ratio(float64(noNeed), float64(pages+noNeed)), "ratio"}
	p := out.Profile
	r.layer["analyzer.sites"] = metric{float64(len(p.Sites)), "count"}
	r.layer["analyzer.instrumented_ratio"] = metric{ratio(float64(p.InstrumentedSites()), float64(len(p.Sites))), "ratio"}
	r.layer["analyzer.conflicts"] = metric{float64(p.Conflicts), "count"}
}

// simLayers records the simulated work of the traced simulations: objects
// allocated, bytes copied and promoted, and total pause time. They are
// simulated outputs, pinned like the others and reported per layer.
func (r *run) simLayers(pauses []gc.Pause, allocs uint64) {
	var copied, promoted uint64
	var paused time.Duration
	for _, p := range pauses {
		copied += p.BytesCopied
		promoted += p.PromotedBytes
		paused += p.Duration
	}
	r.sims["jvm.allocs"] = float64(allocs)
	r.sims["gc.sim_copied_mb"] = float64(copied) / (1 << 20)
	r.sims["gc.sim_promoted_mb"] = float64(promoted) / (1 << 20)
	r.sims["gc.sim_pause_s"] = paused.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
