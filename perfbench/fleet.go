package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"polm2/internal/analyzer"
	"polm2/internal/apps/cassandra"
	"polm2/internal/apps/graphchi"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
	"polm2/internal/fleetclient"
	"polm2/internal/planserver"
	"polm2/internal/profilestore"
)

// fleetKey is one (app, workload) fleet key and the app that profiles it.
type fleetKey struct {
	app core.App
	wl  string
}

// fleetConfig sizes the fleet workload. defaultFleetConfig is what the
// benchmark runs; the tests shrink it.
type fleetConfig struct {
	Keys           []fleetKey
	ProfileLen     time.Duration // simulated length of the set-up profiles
	Instances      int           // synthetic fleet size, homed on daemon idx mod 2
	SharedFraction float64       // share of each key's sites every instance reports under the same trace
	// Cadence is each instance's re-profile interval. Every round the
	// instance uploads its evidence once, at a seeded phase of the round,
	// and polls its plan once half a cadence later: the 1:1 mix of
	// simnet's fleet and of polm2-loadgen.
	Cadence       time.Duration
	SyncInterval  time.Duration // cadence of SyncPeers on each daemon
	TracedSeconds float64       // length of the traced stretch; a cadence long, every instance and sync pass shows in it
	SetupReps     int
	// MaxLateness bounds the generator's p99 lateness; a run over it did
	// not offer the load it claims and is invalid.
	MaxLateness time.Duration
}

// defaultFleetConfig is simnet's fleet model compressed five times in
// time: its 30 s re-profile cadence and polm2d's default 30 s sync
// interval both become 6 s. 256 instances then offer about 43 uploads/s
// plus 43 fetches/s in all.
func defaultFleetConfig() fleetConfig {
	return fleetConfig{
		Keys: []fleetKey{
			{cassandra.New(), cassandra.WorkloadWI},
			{cassandra.New(), cassandra.WorkloadRI},
			{lucene.New(), lucene.Workload},
			{graphchi.New(), graphchi.WorkloadPR},
		},
		ProfileLen:     3 * time.Minute,
		Instances:      256,
		SharedFraction: 0.75,
		Cadence:        6 * time.Second,
		SyncInterval:   6 * time.Second,
		TracedSeconds:  6,
		SetupReps:      3,
		MaxLateness:    50 * time.Millisecond,
	}
}

const daemons = 2

// fleetProbes is the number of calibration probes run just before the
// window and again just after it; the senders and daemons share the CPUs,
// so no probe runs inside the window.
const fleetProbes = 5

// Span propagation headers: the client wrapper names the span a request
// belongs to, and the handler wrapper parents its span on it.
const (
	spanHeader  = "X-Perfbench-Span"
	traceHeader = "X-Perfbench-Trace"
)

// spanHandler wraps a planserver.Server and, while a tracer is set, keeps
// one span per request named after the route.
type spanHandler struct {
	inner http.Handler
	tr    atomic.Pointer[Tracer]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
	name := "planserver.other"
	switch r.URL.Path {
	case "/v1/evidence":
		name = "planserver.upload"
	case "/v1/plan":
		name = "planserver.plan"
	case "/v1/sync":
		name = "planserver.sync"
	}
	sp := tr.Begin(name, parent, trace)
	h.inner.ServeHTTP(w, r)
	tr.End(sp)
}

// spanTransport is the client side: while a tracer is set it stamps each
// request with the span in flight on its single caller, and counts the
// plan bytes the client decodes and the documents sync digests list.
type spanTransport struct {
	base    http.RoundTripper
	tr      atomic.Pointer[Tracer]
	cur     atomic.Pointer[Span]
	decoded atomic.Int64
	listed  atomic.Int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	if sp := t.cur.Load(); sp != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
		req.Header.Set(traceHeader, strconv.FormatUint(sp.Trace, 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	switch req.URL.Path {
	case "/v1/plan", "/v1/evidence":
		t.decoded.Add(resp.ContentLength)
	case "/v1/sync":
		if req.URL.RawQuery != "" {
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var d struct {
			Keys []struct {
				Docs []json.RawMessage `json:"docs"`
			} `json:"keys"`
		}
		if json.Unmarshal(body, &d) == nil {
			for _, k := range d.Keys {
				t.listed.Add(int64(len(k.Docs)))
			}
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	return resp, nil
}

// withSpan runs fn with sp as the transport's span in flight.
func (t *spanTransport) withSpan(sp *Span, fn func()) {
	t.cur.Store(sp)
	fn()
	t.cur.Store(nil)
}

// daemon is one planserver.Server on a loopback listener.
type daemon struct {
	dir     string
	srv     *planserver.Server
	handler *spanHandler
	http    *http.Server
	url     string
	served  chan struct{} // closed when Serve returns
	peerTx  *spanTransport
	// client is the load's single connection to this daemon.
	clientTx *spanTransport
	client   *http.Client
}

// instance is one synthetic fleet member.
type instance struct {
	id     string
	key    int
	home   int
	client *fleetclient.Client
	// template is the instance's evidence for one round; round r reports
	// r times its counts, as cumulative re-profiles do.
	template *analyzer.Profile
	round    int
	acked    *analyzer.Profile // last evidence the daemon acknowledged
}

// fleet is one set-up fleet: two peered daemons and the instances.
type fleet struct {
	cfg     fleetConfig
	daemons []*daemon
	insts   []*instance
	byHome  [daemons][]*instance
	bases   []*analyzer.Profile // each key's set-up profile
	snapMB  float64
}

// buildEvidence derives each instance's evidence template from the key's
// real profile. A fixed share of the sites, every k-th in the profile's
// (trace-sorted) order so every instance agrees and the plan size does
// not hinge on the seed, keep their trace and are shared fleet-wide; the
// others get an outermost frame naming the instance, so they are private
// to it. Counts are perturbed per instance and site, with the survival
// buckets rescaled to sum to the new count.
func buildEvidence(base *analyzer.Profile, inst int, shared float64, seed int64) *analyzer.Profile {
	rnd := rand.New(rand.NewSource(core.DeriveSeed(seed, "evidence", strconv.Itoa(inst))))
	p := &analyzer.Profile{App: base.App, Workload: base.Workload}
	for i, s := range base.Sites {
		trace := s.Trace
		if math.Floor(float64(i+1)*(1-shared)) > math.Floor(float64(i)*(1-shared)) {
			trace = fmt.Sprintf("Fleet.instance%04d:1;%s", inst, trace)
		}
		n := uint64(math.Max(1, math.Round(float64(s.Allocated)*(0.8+0.4*rnd.Float64()))))
		p.Sites = append(p.Sites, analyzer.SiteStat{Trace: trace, Allocated: n, Buckets: rescale(s.Buckets, s.Allocated, n)})
	}
	return p
}

// rescale scales buckets summing to from so they sum to to exactly; the
// rounding remainder goes to the largest bucket.
func rescale(b []uint64, from, to uint64) []uint64 {
	out := make([]uint64, len(b))
	if from == 0 || len(b) == 0 {
		return []uint64{to}
	}
	var sum uint64
	big := 0
	for i, v := range b {
		out[i] = v * to / from
		sum += out[i]
		if v > b[big] {
			big = i
		}
	}
	out[big] += to - sum
	return out
}

// evidenceRound is an instance's cumulative evidence at round r.
func evidenceRound(t *analyzer.Profile, r int) *analyzer.Profile {
	p := &analyzer.Profile{App: t.App, Workload: t.Workload, Sites: make([]analyzer.SiteStat, len(t.Sites))}
	for i, s := range t.Sites {
		b := make([]uint64, len(s.Buckets))
		for j, v := range s.Buckets {
			b[j] = v * uint64(r)
		}
		p.Sites[i] = analyzer.SiteStat{Trace: s.Trace, Allocated: s.Allocated * uint64(r), Buckets: b}
	}
	return p
}

// setUpFleet profiles every key, starts the two peered daemons, and has
// every instance upload its first round, then syncs the daemons to a
// fixpoint.
func setUpFleet(cfg fleetConfig, seed int64, dir string) (*fleet, error) {
	f := &fleet{cfg: cfg, bases: make([]*analyzer.Profile, len(cfg.Keys))}
	for i, k := range cfg.Keys {
		pr, err := core.ProfileApp(k.app, k.wl, core.ProfileOptions{
			Seed: core.DeriveSeed(seed, "fleet", "profile", strconv.Itoa(i)), Duration: cfg.ProfileLen,
			RecordsDir: fmt.Sprintf("%s/records-%d", dir, i),
		})
		if err != nil {
			return nil, err
		}
		f.bases[i] = pr.Profile
		f.snapMB += snapshotMB(pr.Snapshots)
	}
	if err := f.start(dir); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < cfg.Instances; i++ {
		inst := &instance{
			id:       fmt.Sprintf("fleet-%d-%04d", seed, i),
			key:      i % len(cfg.Keys),
			home:     i % daemons,
			template: buildEvidence(f.bases[i%len(cfg.Keys)], i, cfg.SharedFraction, seed),
		}
		d := f.daemons[inst.home]
		c, err := fleetclient.New(fleetclient.Options{
			BaseURL: d.url, InstanceID: inst.id, Seed: core.DeriveSeed(seed, "client", inst.id),
			HTTPClient: d.client, MaxAttempts: 1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		inst.client = c
		f.insts = append(f.insts, inst)
		f.byHome[inst.home] = append(f.byHome[inst.home], inst)
		if err := inst.upload(nil); err != nil {
			f.close()
			return nil, fmt.Errorf("first upload of %s: %w", inst.id, err)
		}
	}
	if err := f.quiesce(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// start serves one daemon on each of two loopback listeners, each peered
// with the other and storing under dir.
func (f *fleet) start(dir string) error {
	lns := make([]net.Listener, daemons)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
	}
	for i := 0; i < daemons; i++ {
		ddir := fmt.Sprintf("%s/store-%d", dir, i)
		store, err := profilestore.Open(ddir)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		peerTx := &spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 2}}
		srv := planserver.New(store, planserver.Options{
			SelfID:     fmt.Sprintf("daemon-%d", i),
			Peers:      []string{"http://" + lns[1-i].Addr().String()},
			PeerClient: &http.Client{Transport: peerTx},
		})
		clientTx := &spanTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		d := &daemon{
			dir: ddir, srv: srv, handler: &spanHandler{inner: srv},
			url: "http://" + lns[i].Addr().String(), served: make(chan struct{}),
			peerTx: peerTx, clientTx: clientTx, client: &http.Client{Transport: clientTx},
		}
		d.http = &http.Server{Handler: d.handler}
		go func(ln net.Listener) {
			defer close(d.served)
			d.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		}(lns[i])
		f.daemons = append(f.daemons, d)
	}
	return nil
}

// close stops both daemons and waits for their servers to exit.
func (f *fleet) close() {
	for _, d := range f.daemons {
		d.http.Close()
		<-d.served
		d.srv.Flush()
		d.clientTx.base.(*http.Transport).CloseIdleConnections()
		d.peerTx.base.(*http.Transport).CloseIdleConnections()
	}
}

// setTracer turns span recording on (tr != nil) or off on every wrapper.
func (f *fleet) setTracer(tr *Tracer) {
	for _, d := range f.daemons {
		d.handler.tr.Store(tr)
		d.peerTx.tr.Store(tr)
		d.clientTx.tr.Store(tr)
	}
}

// upload sends the instance's next round of evidence, counting in
// unchanged (when not nil) an upload whose returned plan kept the
// previous ETag.
func (inst *instance) upload(unchanged *int) error {
	ev := evidenceRound(inst.template, inst.round+1)
	before := inst.client.LastETag()
	if _, err := inst.client.UploadEvidence(ev); err != nil {
		return err
	}
	inst.round++
	inst.acked = ev
	if unchanged != nil && before != "" && inst.client.LastETag() == before {
		*unchanged++
	}
	return nil
}

// fetch polls the instance's fleet plan conditionally.
func (inst *instance) fetch(notModified *int) error {
	_, outcome, err := inst.client.FetchPlan(inst.template.App, inst.template.Workload)
	switch {
	case err != nil:
		return err
	case outcome == fleetclient.OutcomeNotModified:
		*notModified++
	case outcome != fleetclient.OutcomeFresh:
		return fmt.Errorf("plan fetch of %s: %s", inst.id, outcome)
	}
	return nil
}

// request is one scheduled operation of the open loop.
type request struct {
	due    time.Duration
	inst   *instance
	upload bool
}

// schedule lays out the open-loop schedule of one daemon's instances over
// the stretch [from, from+length) of the run, with due times relative to
// from. Each instance uploads once per cadence, at a phase of the round
// drawn from the seed and its id, and polls its plan half a cadence after
// each upload, as simnet's instances do. Requests are in due order.
func schedule(insts []*instance, cadence, from, length time.Duration, seed int64) []request {
	var out []request
	end := from + length
	add := func(t time.Duration, inst *instance, upload bool) {
		if t >= from && t < end {
			out = append(out, request{due: t - from, inst: inst, upload: upload})
		}
	}
	for _, inst := range insts {
		phase := time.Duration(uint64(core.DeriveSeed(seed, "fleet", "phase", inst.id)) % uint64(cadence))
		for t := phase - cadence; t < end; t += cadence {
			add(t, inst, true)
			add(t+cadence/2, inst, false)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// timing is when one request was due, started and finished, relative to
// the start of the schedule, and the CPU time its client spent on it.
type timing struct {
	due, start, end time.Duration
	cpu             time.Duration
	upload          bool
	err             error
}

// openLoopStats derives each request's latency, timed from when it was
// due, and the generator's lateness: how long after the sender was free
// to send it (the later of its due time and the previous request's end)
// it actually went out. Waiting behind a slow previous request counts
// against latency; only the generator's own delay counts as lateness.
func openLoopStats(ts []timing) (uploads, fetches, lateness []time.Duration) {
	var prevEnd time.Duration
	for _, t := range ts {
		free := max(t.due, prevEnd)
		lateness = append(lateness, max(0, t.start-free))
		prevEnd = t.end
		if t.err != nil {
			continue
		}
		if t.upload {
			uploads = append(uploads, t.end-t.due)
		} else {
			fetches = append(fetches, t.end-t.due)
		}
	}
	return uploads, fetches, lateness
}

// counters are the client-side outcome counts of a stretch of load.
type counters struct {
	uploads, unchanged, fetches, notModified int
}

// send runs one daemon's schedule on its single connection. The sender
// keeps its OS thread to itself, so the thread's CPU time across a call is
// the client's own cost of it: encoding, reading and decoding (HTTP writes
// go out from the transport's own goroutine and are not counted).
func (f *fleet) send(reqs []request, t0 time.Time, d *daemon, tr *Tracer, c *counters) []timing {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]timing, 0, len(reqs))
	for _, q := range reqs {
		if wait := q.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		t := timing{due: q.due, start: time.Since(t0), upload: q.upload}
		cpu0 := threadCPU()
		do := func() {
			if q.upload {
				c.uploads++
				t.err = q.inst.upload(&c.unchanged)
			} else {
				c.fetches++
				t.err = q.inst.fetch(&c.notModified)
			}
		}
		if tr != nil {
			name := "fleetclient.fetch"
			if q.upload {
				name = "fleetclient.upload"
			}
			sp := tr.Begin(name, 0, 0)
			d.clientTx.withSpan(&sp, do)
			tr.End(sp)
		} else {
			do()
		}
		t.cpu = threadCPU() - cpu0
		t.end = time.Since(t0)
		out = append(out, t)
	}
	return out
}

// threadCPU is the CPU time of the calling OS thread (Linux).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // the thread CPU clock exists on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

// syncStats accounts the anti-entropy passes the benchmark drives.
type syncStats struct {
	calls   int
	total   time.Duration
	applied int
}

// syncTimes are the due times, relative to from, of the anti-entropy
// passes in the stretch [from, from+length) of the run: one every interval,
// half an interval into each.
func syncTimes(interval, from, length time.Duration) []time.Duration {
	var out []time.Duration
	for t := interval / 2; t < from+length; t += interval {
		if t >= from {
			out = append(out, t-from)
		}
	}
	return out
}

// syncLoop calls SyncPeers on every daemon at each due time.
func (f *fleet) syncLoop(due []time.Duration, t0 time.Time, tr *Tracer, st *syncStats) {
	for _, at := range due {
		time.Sleep(at - time.Since(t0))
		for _, d := range f.daemons {
			t := time.Now()
			if tr != nil {
				sp := tr.Begin("planserver.sync_peers", 0, 0)
				d.peerTx.withSpan(&sp, func() { st.applied += d.srv.SyncPeers() })
				tr.End(sp)
			} else {
				st.applied += d.srv.SyncPeers()
			}
			st.calls++
			st.total += time.Since(t)
		}
	}
}

// drive offers the open-loop load for the stretch [from, from+length) of
// the schedule: one sender per daemon plus the sync passes, all waited for
// before it returns. It then drains both merge pipelines, so the process
// CPU time it returns holds every merge the stretch caused: handlers,
// merges, store writes, sync and the clients alike.
func (f *fleet) drive(seed int64, from, length time.Duration, tr *Tracer) ([]timing, counters, syncStats, time.Duration) {
	var plans [daemons][]request
	for i := range plans {
		plans[i] = schedule(f.byHome[i], f.cfg.Cadence, from, length, seed)
	}
	var (
		wg      sync.WaitGroup
		results [daemons][]timing
		cs      [daemons]counters
		st      syncStats
	)
	cpu0 := processCPU()
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.syncLoop(syncTimes(f.cfg.SyncInterval, from, length), t0, tr, &st)
	}()
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = f.send(plans[i], t0, f.daemons[i], tr, &cs[i])
		}(i)
	}
	wg.Wait()
	for _, d := range f.daemons {
		d.srv.Flush()
	}
	cpu := processCPU() - cpu0
	var all []timing
	var c counters
	for i := range results {
		all = append(all, results[i]...)
		c.uploads += cs[i].uploads
		c.unchanged += cs[i].unchanged
		c.fetches += cs[i].fetches
		c.notModified += cs[i].notModified
	}
	return all, c, st, cpu
}

// quiesce drains both merge pipelines and syncs the daemons until a pass
// pulls nothing.
func (f *fleet) quiesce() error {
	for round := 0; round < 20; round++ {
		for _, d := range f.daemons {
			d.srv.Flush()
		}
		pulled := 0
		for _, d := range f.daemons {
			pulled += d.srv.SyncPeers()
		}
		if pulled == 0 {
			for _, d := range f.daemons {
				d.srv.Flush()
			}
			return nil
		}
	}
	return errors.New("daemons did not reach a sync fixpoint in 20 passes")
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// etagOf is the content-addressed version a daemon assigns a plan.
func etagOf(p *analyzer.Profile) string {
	body := append(mustJSON(p), '\n')
	return fmt.Sprintf("%q", sha256Hex(body))
}

// checkConverged checks, after quiesce, that both daemons publish the same
// plan for every key, equal to an independent merge of each instance's
// last acknowledged evidence, and that each daemon's pipeline accounts
// for every document it took in.
func (f *fleet) checkConverged(r *run) error {
	for k, key := range f.cfg.Keys {
		var inputs []*analyzer.Profile
		for _, inst := range f.insts {
			if inst.key == k {
				inputs = append(inputs, inst.acked)
			}
		}
		want, err := analyzer.MergeProfiles(analyzer.Options{App: key.app.Name(), Workload: key.wl}, inputs...)
		if err != nil {
			return err
		}
		e0 := f.daemons[0].srv.PlanETag(key.app.Name(), key.wl)
		e1 := f.daemons[1].srv.PlanETag(key.app.Name(), key.wl)
		r.check(fmt.Sprintf("both daemons publish the same %s/%s plan", key.app.Name(), key.wl), e0 != "" && e0 == e1)
		r.check(fmt.Sprintf("the %s/%s plan equals an independent merge of the last acknowledged evidence", key.app.Name(), key.wl), e0 == etagOf(want))
	}
	for i, d := range f.daemons {
		reg := d.srv.Metrics()
		in := reg.Counter("evidence_upload_total").Value() + reg.Counter("peer_docs_applied_total").Value()
		out := reg.Counter("evidence_merge_total").Value() + reg.Counter("evidence_coalesced_total").Value()
		r.check(fmt.Sprintf("daemon-%d: uploads + peer-applied docs = merges + coalesced", i), in == out)
	}
	return nil
}

// runFleet is the fleet workload.
func runFleet(r *run, cfg fleetConfig) error {
	var f *fleet
	err := r.setup(cfg.SetupReps, processTime, func(rep int) error {
		if f != nil {
			f.close()
		}
		var err error
		f, err = setUpFleet(cfg, r.seed, r.workDir(fmt.Sprintf("fleet-%d", rep)))
		return err
	})
	if err != nil {
		return err
	}
	defer f.close()
	r.sims["sim_snapshot_mb"] = f.snapMB
	for i, p := range f.bases {
		r.digests[fmt.Sprintf("base_profile_%d_sha256", i)] = sha256Hex(mustJSON(p))
	}

	window := time.Duration(r.seconds * float64(time.Second))
	for i := 0; i < fleetProbes; i++ {
		r.probe()
	}
	ts, _, _, cpu := f.drive(r.seed, 0, window, nil)
	for i := 0; i < fleetProbes; i++ {
		r.probe()
	}
	var uploads, fetches []time.Duration // each request's client CPU time
	for _, t := range ts {
		into := &uploads
		if !t.upload {
			into = &fetches
		}
		r.op(into, t.cpu, t.err)
	}
	if len(ts) == 0 {
		return errors.New("the schedule offered no requests in the window")
	}
	r.ops = []time.Duration{cpu / time.Duration(len(ts))}
	r.endWindow(r.ops[0])
	r.layerMedian("fleetclient.upload_cpu_ms", uploads)
	up, fe, late := openLoopStats(ts)
	latP99 := Percentile(late, 99)
	r.check(fmt.Sprintf("generator p99 lateness %v is within %v", latP99, cfg.MaxLateness), latP99 <= cfg.MaxLateness)
	r.layer["gen.late_p99_ms"] = metric{ms(latP99), "ms"}
	r.layer["gen.upload_p50_ms"] = metric{ms(Percentile(up, 50)), "ms"}
	r.layer["gen.upload_tail_ms"] = metric{ms(Tail(up)), "ms"}
	r.layer["gen.fetch_p50_ms"] = metric{ms(Percentile(fe, 50)), "ms"}
	r.layer["gen.fetch_tail_ms"] = metric{ms(Tail(fe)), "ms"}

	var c counters
	var st syncStats
	if r.traced {
		f.setTracer(r.tr)
		ts, c, st, cpu = f.drive(r.seed, window, time.Duration(cfg.TracedSeconds*float64(time.Second)), r.tr)
		f.setTracer(nil)
		for _, t := range ts {
			r.attempted++
			if t.err != nil {
				r.failed++
			}
		}
		if len(ts) > 0 {
			r.tracedHost = cpu / time.Duration(len(ts))
		}
	}

	if err := f.quiesce(); err != nil {
		return err
	}
	if err := f.checkConverged(r); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return f.fleetLayers(r, c, st)
}

// fleetLayers reports the traced stretch's client, daemon and store
// figures.
func (f *fleet) fleetLayers(r *run, c counters, st syncStats) error {
	var decoded, listed int64
	for _, d := range f.daemons {
		decoded += d.clientTx.decoded.Load()
		listed += d.peerTx.listed.Load()
	}
	r.layer["fleetclient.decoded_mb"] = metric{float64(decoded) / (1 << 20), "MB"}
	r.layer["fleetclient.upload_plan_unchanged_ratio"] = metric{ratio(float64(c.unchanged), float64(c.uploads)), "ratio"}
	r.layer["fleetclient.not_modified_ratio"] = metric{ratio(float64(c.notModified), float64(c.fetches)), "ratio"}
	r.layer["planserver.sync_useful_ratio"] = metric{ratio(float64(st.applied), float64(listed)), "ratio"}

	var uploads, merges, coalesced uint64
	var files int
	var storeBytes int64
	for _, d := range f.daemons {
		reg := d.srv.Metrics()
		uploads += reg.Counter("evidence_upload_total").Value()
		merges += reg.Counter("evidence_merge_total").Value()
		coalesced += reg.Counter("evidence_coalesced_total").Value()
		n, b, err := dirBytes(d.dir)
		if err != nil {
			return err
		}
		files += n
		storeBytes += b
	}
	r.layer["planserver.uploads"] = metric{float64(uploads), "count"}
	r.layer["planserver.merges"] = metric{float64(merges), "count"}
	r.layer["planserver.coalesced_ratio"] = metric{ratio(float64(coalesced), float64(merges+coalesced)), "ratio"}
	var latest int64
	for _, inst := range f.insts {
		latest += int64(len(mustJSON(inst.acked)))
	}
	r.layer["profilestore.files"] = metric{float64(files), "count"}
	r.layer["profilestore.mb"] = metric{float64(storeBytes) / (1 << 20), "MB"}
	r.layer["profilestore.space_amp"] = metric{ratio(float64(storeBytes), float64(daemons*latest)), "ratio"}
	return nil
}
