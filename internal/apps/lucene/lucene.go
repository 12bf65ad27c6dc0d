// Package lucene models Apache Lucene 6.1.0 maintaining an in-memory text
// index over a Wikipedia-scale corpus — the paper's second evaluation
// platform (§5.2.2).
//
// The workload is write-intensive by design ("a worst case scenario for GC
// pauses"): 20000 document updates and 5000 searches per second. Updates
// parse documents (transient), then append postings and document buffers to
// the current in-memory segment through two shared pool helpers; segments
// are flushed periodically and merged away later, so everything reached
// through the pools on the update path is middle-lived. Searches loop over
// the corpus's top words, allocating transient queries, scorers and result
// buffers — through the same two pool helpers, which creates the two
// allocation-path conflicts the paper reports for Lucene (Table 1).
//
// The merge path allocates a handful of long-lived per-segment structures
// (field infos, term dictionary, norms, doc values, bloom, metadata).
// Merges are rare, so POLM2 correctly leaves those sites uninstrumented;
// the paper's expert annotated them anyway — Table 1's "2/8" instrumented
// sites — and pretenured the two shared pools directly without noticing the
// search-path conflicts ("2/0" conflicts), which is why POLM2 outperforms
// manual NG2C on Lucene (§5.4.1).
package lucene

import (
	"fmt"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/workload"
)

// Workload is the single Lucene workload name.
const Workload = "default"

// Offered load (§5.2.2): 20000 updates + 5000 searches per second, scaled
// by core.OpScale.
const (
	totalOpsPerSecond = 25000.0 / core.OpScale
	updateFraction    = 0.8
)

// Model tunables (simulated bytes; heap is 1/64 of the paper's 12 GB).
const (
	// Update path: transient parse buffers, then retained postings and
	// document buffer through the shared pools.
	docParseSize   = 2048
	tokenizeSize   = 1024
	termVectorSize = 512
	postingsSize   = 320
	docBufferSize  = 192
	// recentDocSize is the per-update entry of the recently-updated
	// documents cache: roughly half the entries are dropped on arrival
	// (duplicate updates), the rest live a couple of GC cycles. The mix
	// keeps the site below the Analyzer's old-fraction threshold, so it
	// stays young and keeps survivor copying alive even under POLM2 —
	// the residual pauses of Figure 5(d).
	recentDocSize = 2304
	recentDocKeep = 0.4
	recentDocTTL  = 40 * time.Second
	// Search path: transient query, scorer (via PostingsPool) and
	// result buffer (via BufferPool). The query loop covers the top 500
	// words of the corpus (§5.2.2).
	querySize  = 512
	scorerSize = 1024
	resultSize = 1024
	topWords   = 500
	// Segments: the current segment flushes on a timer; flushed
	// segments merge away after mergeEvery flushes. The merge allocates
	// the six long-lived per-segment structures of the merged segment.
	segmentFlushPeriod = 95 * time.Second
	mergeEvery         = 4
	fieldInfosSize     = 2048
	termDictSize       = 8192
	normsSize          = 4096
	docValuesSize      = 4096
	bloomSize          = 2048
	segMetaSize        = 1024
	// Mutator work per simulated operation (microseconds); one simulated
	// operation is core.OpScale real requests.
	updateWork = 1900
	searchWork = 2300
	mergeWork  = 30000
)

// App is the Lucene model.
type App struct{}

var _ core.App = (*App)(nil)

// New returns the Lucene application model.
func New() *App { return &App{} }

// Name implements core.App.
func (a *App) Name() string { return "Lucene" }

// Workloads implements core.App.
func (a *App) Workloads() []string { return []string{Workload} }

// state is the per-run mutable application state.
type state struct {
	env *core.Env
	th  *jvm.Thread
	rnd *workload.Rand

	segment   *heap.Object   // current in-memory segment (rooted)
	flushed   []*heap.Object // flushed segments awaiting merge (rooted)
	merged    *heap.Object   // last merged segment (rooted)
	recent    []ttlEntry     // recently-updated documents cache (rooted)
	lastFlush time.Duration
	flushes   int
	queryWord int
}

// ttlEntry pairs a rooted object with its expiry instant.
type ttlEntry struct {
	obj    *heap.Object
	expiry time.Duration
}

// Run implements core.App.
func (a *App) Run(env *core.Env, workloadName string) error {
	if workloadName != Workload {
		return fmt.Errorf("lucene: unknown workload %q", workloadName)
	}
	th := env.VM().NewThread("lucene")
	th.Enter("IndexNode", "serve")
	s := &state{env: env, th: th, rnd: env.Rand()}
	if err := s.newSegment(); err != nil {
		return err
	}
	pacer, err := workload.NewPacer(env.Clock(), totalOpsPerSecond)
	if err != nil {
		return err
	}
	for !env.Done() {
		pacer.Await()
		if s.rnd.Float64() < updateFraction {
			if err := s.update(); err != nil {
				return err
			}
		} else {
			if err := s.search(); err != nil {
				return err
			}
		}
		th.ReleaseLocals()
		env.CountOps(1)
	}
	return nil
}

// newSegment opens a fresh in-memory segment. The segment's root buffer is
// allocated through the shared BufferPool, so it shares the pool's
// allocation site with the update and search paths.
func (s *state) newSegment() error {
	s.th.Call(40, "DocumentsWriter", "newSegment")
	s.th.Call(4, "BufferPool", "get")
	obj, err := s.th.Alloc(2, 512)
	s.th.Return()
	s.th.Return()
	if err != nil {
		return err
	}
	if err := s.env.Heap().AddRoot(obj); err != nil {
		return err
	}
	s.segment = obj
	return nil
}

// update is one document update: parse (transient), then postings and a
// document buffer appended to the current segment through the two shared
// pools — the middle-lived side of both conflicts.
func (s *state) update() error {
	th, h := s.th, s.env.Heap()

	th.Call(10, "IndexWriter", "updateDocument")
	// Transient parsing.
	th.Call(3, "DocumentParser", "parse")
	if _, err := th.Alloc(5, s.rnd.SizeAround(docParseSize, 0.3)); err != nil {
		return err
	}
	if _, err := th.Alloc(7, s.rnd.SizeAround(tokenizeSize, 0.3)); err != nil {
		return err
	}
	th.Return()
	if _, err := th.Alloc(12, termVectorSize); err != nil {
		return err
	}

	// Retained index data through the shared pools.
	th.Call(14, "PostingsPool", "get")
	postings, err := th.Alloc(2, s.rnd.SizeAround(postingsSize, 0.25))
	th.Return()
	if err != nil {
		return err
	}
	th.Call(16, "BufferPool", "get")
	docBuf, err := th.Alloc(2, docBufferSize)
	th.Return()
	if err != nil {
		return err
	}
	th.Return()

	if err := h.Link(s.segment, postings); err != nil {
		return err
	}
	if err := h.Link(s.segment, docBuf); err != nil {
		return err
	}

	// Recently-updated documents cache: half the entries are dropped
	// immediately, the rest expire after a couple of GC cycles.
	entry, err := th.Alloc(18, recentDocSize)
	if err != nil {
		return err
	}
	if s.rnd.Float64() < recentDocKeep {
		if err := h.AddRoot(entry); err != nil {
			return err
		}
		s.recent = append(s.recent, ttlEntry{obj: entry, expiry: s.env.Now() + recentDocTTL})
	}
	now := s.env.Now()
	for len(s.recent) > 0 && s.recent[0].expiry <= now {
		victim := s.recent[0]
		s.recent = s.recent[1:]
		if err := h.RemoveRoot(victim.obj); err != nil {
			return err
		}
	}
	th.Work(updateWork)

	if s.env.Now()-s.lastFlush >= segmentFlushPeriod {
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// flush seals the current segment and opens a new one; every mergeEvery
// flushes, the sealed segments are merged.
func (s *state) flush() error {
	s.flushed = append(s.flushed, s.segment)
	s.flushes++
	s.lastFlush = s.env.Now()
	if err := s.newSegment(); err != nil {
		return err
	}
	if s.flushes%mergeEvery == 0 {
		return s.merge()
	}
	return nil
}

// merge combines the sealed segments: their postings die en masse and the
// merged segment's long-lived structures are allocated — the six rare
// allocation sites the paper's expert annotated but POLM2 correctly skips.
func (s *state) merge() error {
	th, h := s.th, s.env.Heap()
	th.Call(50, "SegmentMerger", "merge")

	holder, err := th.Alloc(4, 512)
	if err != nil {
		return err
	}
	parts := []struct {
		line int
		size uint32
	}{
		{10, fieldInfosSize},
		{12, termDictSize},
		{14, normsSize},
		{16, docValuesSize},
		{18, bloomSize},
		{20, segMetaSize},
	}
	if err := h.AddRoot(holder); err != nil {
		return err
	}
	for _, part := range parts {
		obj, err := th.Alloc(part.line, part.size)
		if err != nil {
			return err
		}
		if err := h.Link(holder, obj); err != nil {
			return err
		}
	}
	th.Return()

	// The merged-away segments die here, en masse.
	for _, seg := range s.flushed {
		if err := h.RemoveRoot(seg); err != nil {
			return err
		}
	}
	s.flushed = s.flushed[:0]
	if s.merged != nil {
		if err := h.RemoveRoot(s.merged); err != nil {
			return err
		}
	}
	s.merged = holder
	th.Work(mergeWork)
	return nil
}

// search is one query over the corpus's hot words: a transient query
// object, a scorer through PostingsPool and a result buffer through
// BufferPool — the short-lived side of both conflicts.
func (s *state) search() error {
	th := s.th
	s.queryWord = (s.queryWord + 1) % topWords

	th.Call(20, "IndexSearcher", "search")
	if _, err := th.Alloc(5, querySize); err != nil {
		return err
	}
	th.Call(7, "PostingsPool", "get")
	if _, err := th.Alloc(2, s.rnd.SizeAround(scorerSize, 0.3)); err != nil {
		return err
	}
	th.Return()
	th.Call(9, "BufferPool", "get")
	if _, err := th.Alloc(2, s.rnd.SizeAround(resultSize, 0.3)); err != nil {
		return err
	}
	th.Return()
	th.Return()
	th.Work(searchWork)
	return nil
}

// ManualProfile implements core.App: the expert's hand-written annotations
// for Lucene (§5.4.1, Table 1). The expert annotated eight sites — the two
// hot pool helpers plus the six per-merge structures — directly, without
// realizing the pools are also used by the transient search path: the
// "misplaced manual code changes" that make manual NG2C worse than POLM2 on
// Lucene.
func (a *App) ManualProfile(workloadName string) (*analyzer.Profile, error) {
	if workloadName != Workload {
		return nil, fmt.Errorf("lucene: unknown workload %q", workloadName)
	}
	p := &analyzer.Profile{
		App:         "Lucene",
		Workload:    workloadName,
		Generations: 1,
		Conflicts:   0, // the expert saw none (Table 1: 2/0)
		Allocs: []analyzer.AllocDirective{
			{Loc: "PostingsPool.get:2", Gen: 1, Direct: true}, // drags scorers along
			{Loc: "BufferPool.get:2", Gen: 1, Direct: true},   // drags result buffers along
			{Loc: "SegmentMerger.merge:10", Gen: 1, Direct: true},
			{Loc: "SegmentMerger.merge:12", Gen: 1, Direct: true},
			{Loc: "SegmentMerger.merge:14", Gen: 1, Direct: true},
			{Loc: "SegmentMerger.merge:16", Gen: 1, Direct: true},
			{Loc: "SegmentMerger.merge:18", Gen: 1, Direct: true},
			{Loc: "SegmentMerger.merge:20", Gen: 1, Direct: true},
		},
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("lucene: manual profile: %w", err)
	}
	return p, nil
}
