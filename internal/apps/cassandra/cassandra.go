// Package cassandra models Apache Cassandra 2.1.8 under YCSB-style load —
// the paper's first evaluation platform (§5.2.1).
//
// The model reproduces the allocation structure that makes Cassandra hard
// for generational collectors (§1, §2.1 of the paper, and the NG2C paper's
// analysis):
//
//   - writes append cells to the current memtable; everything a memtable
//     references lives until the memtable is flushed, then dies at once —
//     classic middle-lived, en-masse-death data that G1 copies through
//     survivor space and promotes before it dies;
//   - commit-log segments roll over by write volume and are recycled when
//     the memtable they cover is flushed — the same lifetime class;
//   - flushes produce SSTable metadata (bloom filters, index summaries)
//     that lives until the SSTables are compacted away — long-lived;
//   - reads allocate transient request/response objects and populate a
//     bounded row cache — a third lifetime class;
//   - a shared buffer helper (ByteBuffer.allocate) is used by both the
//     write path (memtable lifetime) and the read path (transient),
//     creating exactly the allocation-path conflict of the paper's
//     Listing 1; a second helper (Util.copy) is shared between flush
//     (SSTable lifetime) and compaction scratch buffers; and under
//     read-heavy load the row-cache entry site is additionally reached
//     through a short-lived negative-caching path, producing the third
//     conflict the paper reports for Cassandra-RI (Table 1).
//
// Three workload mixes match §5.2.1: WI (7500 writes / 2500 reads per
// second), WR (5000/5000) and RI (2500/7500).
package cassandra

import (
	"fmt"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/workload"
)

// Workload names (§5.2.1).
const (
	WorkloadWI = "WI"
	WorkloadWR = "WR"
	WorkloadRI = "RI"
)

// totalOpsPerSecond is the offered load in simulated operations per second.
// The paper offers 10000 real operations per second; one simulated
// operation stands for core.OpScale real operations (it allocates the
// aggregate bytes of that many requests), so the simulated rate is
// 10000/OpScale.
const totalOpsPerSecond = 10000.0 / core.OpScale

// Tunables of the model. Sizes are simulated bytes at scale (the default
// geometry is 1/64 of the paper's 12 GB heap / 2 GB young generation).
const (
	// Write path: one transient commit-log record batch plus the
	// retained memtable row (wrapper + cell payload + index entry).
	logRecordSize  = 12288
	rowOverhead    = 128
	cellSize       = 768
	indexEntrySize = 64
	// segmentSize is a commit-log segment object; segments roll every
	// writesPerSegment simulated writes and are recycled at the next
	// flush.
	segmentSize      = 8192
	writesPerSegment = 2000
	// flushPeriod flushes the memtable on a timer (Cassandra's
	// memtable_flush_period): several young-GC cycles, so memtable data
	// survives long enough to be copied and promoted by G1 — the
	// pathology the paper attacks.
	flushPeriod = 48 * time.Second
	// flushesPerCompaction compacts after this many SSTables accumulate.
	flushesPerCompaction = 24
	// SSTable metadata sizes per flush.
	bloomSize   = 3072
	summarySize = 4096
	indexSize   = 2048
	scratchSize = 2048
	// Read path: transient response buffer batch (via the shared
	// ByteBuffer helper), response slice and iterator.
	responseSize = 20480
	sliceSize    = 2048
	iteratorSize = 2048
	// Row cache: entry + value per fill, expired after cacheTTL.
	cacheEntrySize    = 96
	cacheValueSize    = 320
	cacheTTL          = 120 * time.Second
	cacheFillFraction = 0.15
	// Negative caching: under read-heavy load a fraction of misses
	// installs a short-lived tombstone entry through the same
	// allocation site as a regular cache fill.
	tombstoneFraction = 0.10
	tombstoneCapacity = 64
	// Write coordination state: per-write coordinator/hint objects.
	// Most are dropped at once (acknowledged immediately), the rest live
	// a couple of GC cycles awaiting replica acks. The mixed lifetime
	// keeps the site below the Analyzer's old-fraction threshold, so it
	// stays young and keeps survivor copying alive even under POLM2 —
	// the residual pauses of Figure 5(a-c). Because the volume scales
	// with the write rate, the read-intensive mix has the least residual
	// copying and shows the largest relative pause reduction, as in the
	// paper.
	sessionSize = 3584
	sessionKeep = 0.4
	sessionTTL  = 27 * time.Second
	// keySpace is the number of distinct keys, drawn Zipfian.
	keySpace = 1 << 20
	// writeWork and readWork are the mutator costs per simulated
	// operation in engine work units (microseconds); one simulated
	// operation is core.OpScale real requests. Calibrated to keep the
	// server at high utilization under the offered load so GC pauses
	// and barrier taxes show up in throughput, as on the paper's
	// testbed.
	writeWork = 4800
	readWork  = 5400
	flushWork = 40000
)

// App is the Cassandra model.
type App struct{}

var _ core.App = (*App)(nil)

// New returns the Cassandra application model.
func New() *App { return &App{} }

// Name implements core.App.
func (a *App) Name() string { return "Cassandra" }

// Workloads implements core.App.
func (a *App) Workloads() []string {
	return []string{WorkloadWI, WorkloadWR, WorkloadRI}
}

// mix returns the write fraction for a workload.
func mix(workloadName string) (writeFraction float64, err error) {
	switch workloadName {
	case WorkloadWI:
		return 0.75, nil
	case WorkloadWR:
		return 0.50, nil
	case WorkloadRI:
		return 0.25, nil
	default:
		return 0, fmt.Errorf("cassandra: unknown workload %q", workloadName)
	}
}

// state is the per-run mutable application state.
type state struct {
	env  *core.Env
	th   *jvm.Thread
	rnd  *workload.Rand
	zipf *workload.Zipf

	memtable      *heap.Object // current memtable root object
	memtableBytes uint64

	segments      []*heap.Object // commit-log segments since last flush
	segmentWrites uint64

	sstables []*heap.Object // live SSTable holder objects (rooted)
	flushes  int

	cache      []cacheEntry   // row cache entries (rooted, TTL expiry)
	sessions   []cacheEntry   // per-op session state (rooted, TTL expiry)
	tombstones []*heap.Object // FIFO negative-cache entries (rooted)

	lastFlush time.Duration

	negativeCaching bool
}

// cacheEntry pairs a rooted row-cache entry with its expiry instant.
type cacheEntry struct {
	obj    *heap.Object
	expiry time.Duration
}

// Run implements core.App.
func (a *App) Run(env *core.Env, workloadName string) error {
	writeFraction, err := mix(workloadName)
	if err != nil {
		return err
	}
	rnd := env.Rand()
	zipf, err := workload.NewZipf(rnd, 1.2, keySpace)
	if err != nil {
		return err
	}
	th := env.VM().NewThread("cassandra")
	th.Enter("CassandraDaemon", "serve")
	s := &state{
		env:  env,
		th:   th,
		rnd:  rnd,
		zipf: zipf,
		// Negative caching only pays off — and is only enabled —
		// when reads dominate.
		negativeCaching: writeFraction < 0.4,
	}
	if err := s.newMemtable(); err != nil {
		return err
	}

	pacer, err := workload.NewPacer(env.Clock(), totalOpsPerSecond)
	if err != nil {
		return err
	}
	for !env.Done() {
		pacer.Await()
		if rnd.Float64() < writeFraction {
			if err := s.sessionState(); err != nil {
				return err
			}
			if err := s.write(); err != nil {
				return err
			}
		} else {
			if err := s.read(); err != nil {
				return err
			}
		}
		th.ReleaseLocals()
		env.CountOps(1)
	}
	return nil
}

// sessionState allocates the per-write coordinator state and expires old
// sessions.
func (s *state) sessionState() error {
	th, h := s.th, s.env.Heap()
	obj, err := th.Alloc(8, s.rnd.SizeAround(sessionSize, 0.4))
	if err != nil {
		return err
	}
	if s.rnd.Float64() < sessionKeep {
		if err := h.AddRoot(obj); err != nil {
			return err
		}
		jitter := time.Duration(s.rnd.Float64() * float64(sessionTTL))
		s.sessions = append(s.sessions, cacheEntry{obj: obj, expiry: s.env.Now() + sessionTTL/2 + jitter})
	}
	now := s.env.Now()
	for len(s.sessions) > 0 && s.sessions[0].expiry <= now {
		victim := s.sessions[0]
		s.sessions = s.sessions[1:]
		if err := h.RemoveRoot(victim.obj); err != nil {
			return err
		}
	}
	return nil
}

// newMemtable installs a fresh memtable root object, allocated on the flush
// path (CassandraDaemon.serve -> Memtable.create).
func (s *state) newMemtable() error {
	s.th.Call(40, "Memtable", "create")
	obj, err := s.th.Alloc(5, 512)
	s.th.Return()
	if err != nil {
		return err
	}
	if err := s.env.Heap().AddRoot(obj); err != nil {
		return err
	}
	s.memtable = obj
	s.memtableBytes = 0
	return nil
}

// newSegment rolls the commit log to a fresh segment object. Old segments
// stay alive until the covering memtable flushes.
func (s *state) newSegment() error {
	s.th.Call(45, "CommitLog", "newSegment")
	obj, err := s.th.Alloc(9, segmentSize)
	s.th.Return()
	if err != nil {
		return err
	}
	if err := s.env.Heap().AddRoot(obj); err != nil {
		return err
	}
	s.segments = append(s.segments, obj)
	s.segmentWrites = 0
	return nil
}

// write is one YCSB write: commit-log append, then memtable insert through
// the shared buffer helper.
func (s *state) write() error {
	th, h := s.th, s.env.Heap()
	_ = s.zipf.Next() // key choice does not change write-path allocation

	// Commit log: transient record, occasional segment rollover.
	th.Call(10, "CommitLog", "append")
	if _, err := th.Alloc(7, logRecordSize); err != nil {
		return err
	}
	th.Return()
	s.segmentWrites++
	if len(s.segments) == 0 || s.segmentWrites >= writesPerSegment {
		if err := s.newSegment(); err != nil {
			return err
		}
	}

	// Memtable insert: row wrapper, cell payload via the shared
	// ByteBuffer helper (conflict #1), index entry. All linked to the
	// memtable so they die together at flush.
	th.Call(12, "Memtable", "put")
	row, err := th.Alloc(12, rowOverhead)
	if err != nil {
		return err
	}
	th.Call(14, "ByteBuffer", "allocate")
	cell, err := th.Alloc(2, s.rnd.SizeAround(cellSize, 0.25))
	th.Return()
	if err != nil {
		return err
	}
	idx, err := th.Alloc(16, indexEntrySize)
	if err != nil {
		return err
	}
	th.Return()
	if err := h.Link(s.memtable, row); err != nil {
		return err
	}
	if err := h.Link(row, cell); err != nil {
		return err
	}
	if err := h.Link(s.memtable, idx); err != nil {
		return err
	}
	s.memtableBytes += uint64(cell.Size) + uint64(row.Size) + uint64(idx.Size)
	th.Work(writeWork)

	if s.env.Now()-s.lastFlush >= flushPeriod {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// flush writes the memtable out as an SSTable: the memtable's object graph
// and the covered commit-log segments die at once, and long-lived SSTable
// metadata is allocated (bloom filter, index summary, key index via the
// shared Util.copy helper — conflict #2).
func (s *state) flush() error {
	th, h := s.th, s.env.Heap()
	th.Call(50, "Memtable", "flush")
	th.Call(3, "SSTableWriter", "write")

	holder, err := th.Alloc(8, 256)
	if err != nil {
		return err
	}
	bloom, err := th.Alloc(10, bloomSize)
	if err != nil {
		return err
	}
	summary, err := th.Alloc(12, summarySize)
	if err != nil {
		return err
	}
	th.Call(14, "Util", "copy")
	keyIndex, err := th.Alloc(2, indexSize)
	th.Return()
	if err != nil {
		return err
	}
	// Transient serialization scratch through the same shared helper:
	// the short-lived side of conflict #2, exercised on every flush.
	th.Call(16, "Util", "copy")
	if _, err := th.Alloc(2, scratchSize); err != nil {
		return err
	}
	th.Return()
	th.Return()
	th.Return()

	if err := h.AddRoot(holder); err != nil {
		return err
	}
	for _, part := range []*heap.Object{bloom, summary, keyIndex} {
		if err := h.Link(holder, part); err != nil {
			return err
		}
	}
	s.sstables = append(s.sstables, holder)
	s.flushes++
	s.lastFlush = s.env.Now()

	// The old memtable and its commit-log segments die here, en masse.
	if err := h.RemoveRoot(s.memtable); err != nil {
		return err
	}
	for _, seg := range s.segments {
		if err := h.RemoveRoot(seg); err != nil {
			return err
		}
	}
	s.segments = s.segments[:0]
	if err := s.newMemtable(); err != nil {
		return err
	}
	th.Work(flushWork)

	if s.flushes%flushesPerCompaction == 0 {
		return s.compact()
	}
	return nil
}

// compact merges the accumulated SSTables: their metadata dies, one merged
// SSTable's metadata is allocated, plus transient merge buffers through the
// shared Util.copy helper (the transient side of conflict #2).
func (s *state) compact() error {
	th, h := s.th, s.env.Heap()
	th.Call(60, "CompactionTask", "run")

	merged, err := th.Alloc(8, 256)
	if err != nil {
		return err
	}
	if err := h.AddRoot(merged); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		meta, err := th.Alloc(9, summarySize)
		if err != nil {
			return err
		}
		if err := h.Link(merged, meta); err != nil {
			return err
		}
	}
	// Transient merge scratch through the shared helper.
	for range s.sstables {
		th.Call(11, "Util", "copy")
		if _, err := th.Alloc(2, 2048); err != nil {
			return err
		}
		th.Return()
	}
	th.Return()

	for _, old := range s.sstables {
		if err := h.RemoveRoot(old); err != nil {
			return err
		}
	}
	s.sstables = s.sstables[:0]
	s.sstables = append(s.sstables, merged)
	th.Work(flushWork)
	return nil
}

// read is one YCSB read: transient response objects through the shared
// ByteBuffer helper (the transient side of conflict #1), an occasional
// row-cache fill, and — under read-heavy load — a short-lived negative
// cache entry through the same allocation site as a regular fill
// (conflict #3, RI only).
func (s *state) read() error {
	th, h := s.th, s.env.Heap()
	_ = s.zipf.Next()

	th.Call(20, "ReadCommand", "execute")
	th.Call(30, "ByteBuffer", "allocate")
	if _, err := th.Alloc(2, s.rnd.SizeAround(responseSize, 0.3)); err != nil {
		return err
	}
	th.Return()
	th.Call(32, "Slice", "make")
	if _, err := th.Alloc(2, sliceSize); err != nil {
		return err
	}
	th.Return()
	if _, err := th.Alloc(33, iteratorSize); err != nil {
		return err
	}
	if s.negativeCaching && s.rnd.Float64() < tombstoneFraction {
		// Negative caching: a tombstone entry through the regular
		// row-cache allocation site, invalidated almost immediately
		// by subsequent writes.
		th.Call(35, "RowCache", "put")
		tomb, err := th.Alloc(42, cacheEntrySize)
		th.Return()
		if err != nil {
			return err
		}
		if err := h.AddRoot(tomb); err != nil {
			return err
		}
		s.tombstones = append(s.tombstones, tomb)
		if len(s.tombstones) > tombstoneCapacity {
			victim := s.tombstones[0]
			s.tombstones = s.tombstones[1:]
			if err := h.RemoveRoot(victim); err != nil {
				return err
			}
		}
	}
	th.Return()

	if s.rnd.Float64() < cacheFillFraction {
		th.Call(24, "RowCache", "put")
		entry, err := th.Alloc(42, cacheEntrySize)
		if err != nil {
			return err
		}
		value, err := th.Alloc(44, s.rnd.SizeAround(cacheValueSize, 0.2))
		if err != nil {
			return err
		}
		th.Return()
		if err := h.AddRoot(entry); err != nil {
			return err
		}
		if err := h.Link(entry, value); err != nil {
			return err
		}
		s.cache = append(s.cache, cacheEntry{obj: entry, expiry: s.env.Now() + cacheTTL})
	}
	// Expire cache entries past their TTL (insertion order is expiry
	// order).
	now := s.env.Now()
	for len(s.cache) > 0 && s.cache[0].expiry <= now {
		victim := s.cache[0]
		s.cache = s.cache[1:]
		if err := h.RemoveRoot(victim.obj); err != nil {
			return err
		}
	}
	th.Work(readWork)
	return nil
}

// ManualProfile implements core.App: the expert's hand-written NG2C
// annotations (§5.4.1). The expert studied the write, flush and cache paths
// and resolved the two conflicts visible there (ByteBuffer and Util). The
// row-cache entry site is pretenured directly — correct under WI and WR,
// but under RI the negative-caching path reaches the same site with
// short-lived tombstones, so the direct annotation mispretenures them: the
// paper's "misplaced manual code changes" that let POLM2 beat manual NG2C
// on Cassandra-RI (§5.4.1).
func (a *App) ManualProfile(workloadName string) (*analyzer.Profile, error) {
	if _, err := mix(workloadName); err != nil {
		return nil, err
	}
	// Generation 1: memtable lifetime. Generation 2: SSTable metadata.
	// Generation 3: row cache.
	p := &analyzer.Profile{
		App:         "Cassandra",
		Workload:    workloadName,
		Generations: 3,
		Conflicts:   2, // the expert found the ByteBuffer and Util conflicts
		Allocs: []analyzer.AllocDirective{
			{Loc: "CommitLog.newSegment:9", Gen: 1, Direct: true},
			{Loc: "Memtable.create:5", Gen: 1, Direct: true},
			{Loc: "Memtable.put:12", Gen: 1, Direct: true},
			{Loc: "Memtable.put:16", Gen: 1, Direct: true},
			{Loc: "ByteBuffer.allocate:2", Gen: 0}, // conflict #1: annotate, anchor below
			{Loc: "SSTableWriter.write:8", Gen: 2, Direct: true},
			{Loc: "SSTableWriter.write:10", Gen: 2, Direct: true},
			{Loc: "SSTableWriter.write:12", Gen: 2, Direct: true},
			{Loc: "Util.copy:2", Gen: 0}, // conflict #2: annotate, anchor below
			{Loc: "CompactionTask.run:9", Gen: 2, Direct: true},
			{Loc: "RowCache.put:42", Gen: 3, Direct: true}, // misplaced under RI
		},
		Calls: []analyzer.CallDirective{
			// Conflict #1 resolved at the write-path call into the
			// shared buffer helper.
			{Loc: "Memtable.put:14", Gen: 1},
			// Conflict #2 resolved at the flush-path call into Util.
			{Loc: "SSTableWriter.write:14", Gen: 2},
		},
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cassandra: manual profile: %w", err)
	}
	return p, nil
}
