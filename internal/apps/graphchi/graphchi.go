// Package graphchi models GraphChi 0.2.2 running iterative graph
// computations over a Twitter-2010-scale power-law graph — the paper's
// third evaluation platform (§5.2.3).
//
// GraphChi processes the graph in intervals: it computes a memory budget,
// loads a batch of vertices and their edges into memory, runs the update
// function over the batch, writes results back and drops the batch —
// middle-lived data dying en masse, the ideal pretenuring case. Per-update
// scratch (messages, accumulators) is transient.
//
// Nine allocation sites build each batch (vertex array, in/out edges,
// vertex and edge values, degrees, adjacency index, shard buffers through
// the shared ChunkPool, and vertex objects); the compute path draws its
// scratch buffers through the same ChunkPool, which is the one
// allocation-path conflict POLM2 detects and the paper's expert missed
// (Table 1: 9/9 sites, 1/0 conflicts). Two workloads match the paper: page
// rank (PR) and connected components (CC).
package graphchi

import (
	"fmt"

	"polm2/internal/analyzer"
	"polm2/internal/core"
	"polm2/internal/heap"
	"polm2/internal/jvm"
	"polm2/internal/workload"
)

// Workload names (§5.2.3).
const (
	WorkloadPR = "PR"
	WorkloadCC = "CC"
)

// Model tunables. GraphChi is throughput-oriented: there is no pacer; the
// engine processes batches as fast as the simulated CPU allows.
const (
	// batchBudgetBytes is the memory budget per interval (GraphChi
	// computes one from available memory; a quarter of the scaled heap).
	batchBudgetBytes = 48 << 20
	// chunkSize is the unit of batch loading: one simulated chunk stands
	// for core.OpScale real allocation units.
	chunkSize = 24576
	// loadWorkPerChunk and computeWorkPerChunk are mutator microseconds.
	loadWorkPerChunk    = 400
	computeWorkPerChunk = 20000
	// scratchSize is the transient compute scratch drawn from ChunkPool
	// per compute step.
	scratchSize = 2048
	// messageSize is the transient per-step message buffer.
	messageSize = 26624
	// memoSize is the per-step vertex-state memo: half the memos are
	// dropped immediately, the rest live for a couple of GC cycles in a
	// bounded queue. The mixed lifetime keeps the site young under the
	// Analyzer's thresholds, preserving the survivor copying behind the
	// residual POLM2 pauses of Figures 5(e)/(f).
	memoSize  = 2048
	memoKeep  = 0.4
	memoQueue = 2048
	// updatesPerChunk is how many simulated vertex updates one chunk's
	// compute step performs (throughput accounting).
	updatesPerChunk = 48
)

// workloadParams differentiates PR and CC.
type workloadParams struct {
	// subIterations is how many times the update function sweeps a
	// loaded batch before it is dropped (PR iterates more).
	subIterations int
	// valueScale inflates the vertex/edge value sizes (PR carries
	// double-precision ranks; CC carries integer labels).
	valueScale uint32
}

func params(workloadName string) (workloadParams, error) {
	switch workloadName {
	case WorkloadPR:
		return workloadParams{subIterations: 3, valueScale: 2}, nil
	case WorkloadCC:
		return workloadParams{subIterations: 2, valueScale: 1}, nil
	default:
		return workloadParams{}, fmt.Errorf("graphchi: unknown workload %q", workloadName)
	}
}

// App is the GraphChi model.
type App struct{}

var _ core.App = (*App)(nil)

// New returns the GraphChi application model.
func New() *App { return &App{} }

// Name implements core.App.
func (a *App) Name() string { return "GraphChi" }

// Workloads implements core.App.
func (a *App) Workloads() []string { return []string{WorkloadCC, WorkloadPR} }

// loadSite describes one of the batch-building allocation sites.
type loadSite struct {
	method string
	line   int
	// share is the site's fraction of the batch budget.
	share float64
	// pooled routes the allocation through the shared ChunkPool helper.
	pooled bool
}

// batchSites are the nine allocation sites of §5.2.3's loading phase.
var batchSites = []loadSite{
	{method: "loadVertices", line: 10, share: 0.12},
	{method: "loadInEdges", line: 12, share: 0.22},
	{method: "loadOutEdges", line: 14, share: 0.22},
	{method: "loadVertexValues", line: 16, share: 0.10},
	{method: "loadEdgeValues", line: 18, share: 0.14},
	{method: "loadDegreeData", line: 20, share: 0.06},
	{method: "loadAdjIndex", line: 22, share: 0.05},
	{method: "loadShards", line: 24, share: 0.06, pooled: true},
	{method: "loadVertexObjects", line: 26, share: 0.03},
}

// Run implements core.App.
func (a *App) Run(env *core.Env, workloadName string) error {
	p, err := params(workloadName)
	if err != nil {
		return err
	}
	th := env.VM().NewThread("graphchi")
	th.Enter("GraphChiEngine", "run")
	rnd := env.Rand()

	var memos []*heap.Object
	for !env.Done() {
		batch, chunks, err := loadBatch(env, th, rnd, p)
		if err != nil {
			return err
		}
		for sub := 0; sub < p.subIterations && !env.Done(); sub++ {
			if err := computeSweep(env, th, rnd, chunks, &memos); err != nil {
				return err
			}
		}
		// The interval ends: the whole batch dies en masse.
		if err := env.Heap().RemoveRoot(batch); err != nil {
			return err
		}
		th.ReleaseLocals()
	}
	return nil
}

// loadBatch builds one interval's in-memory subgraph under the memory
// budget, returning the rooted batch holder and the chunk count.
func loadBatch(env *core.Env, th *jvm.Thread, rnd *workload.Rand, p workloadParams) (*heap.Object, int, error) {
	h := env.Heap()
	th.Call(5, "MemoryShard", "loadSubgraph")
	// The batch holder is itself a pooled shard buffer.
	th.Call(3, "ChunkPool", "alloc")
	holder, err := th.Alloc(2, 512)
	th.Return()
	if err != nil {
		return nil, 0, err
	}
	if err := h.AddRoot(holder); err != nil {
		return nil, 0, err
	}

	chunks := 0
	for _, site := range batchSites {
		bytes := uint64(float64(batchBudgetBytes) * site.share)
		size := uint32(chunkSize)
		if site.method == "loadVertexValues" || site.method == "loadEdgeValues" {
			size *= p.valueScale
		}
		// One call per site loads the whole array: a single hoisted
		// setGeneration at this call site covers every chunk the loop
		// below allocates (§4.4's motivating case).
		th.Call(site.line, "MemoryShard", site.method)
		for allocated := uint64(0); allocated+uint64(size) <= bytes; allocated += uint64(size) {
			var chunk *heap.Object
			var err error
			if site.pooled {
				th.Call(3, "ChunkPool", "alloc")
				chunk, err = th.Alloc(2, size)
				th.Return()
			} else {
				chunk, err = th.Alloc(2, size)
			}
			if err != nil {
				return nil, 0, err
			}
			if err := h.Link(holder, chunk); err != nil {
				return nil, 0, err
			}
			chunks++
			th.Work(loadWorkPerChunk)
			if chunks%64 == 0 {
				th.ReleaseLocals()
			}
		}
		th.Return()
	}
	th.Return()
	th.ReleaseLocals()
	return holder, chunks, nil
}

// computeSweep runs the update function over the loaded batch once,
// allocating transient scratch through the shared ChunkPool (the
// short-lived side of the conflict), message buffers, and medium-lived
// vertex-state memos.
func computeSweep(env *core.Env, th *jvm.Thread, rnd *workload.Rand, chunks int, memos *[]*heap.Object) error {
	h := env.Heap()
	th.Call(7, "GraphChiEngine", "execUpdates")
	for i := 0; i < chunks && !env.Done(); i++ {
		th.Call(4, "ChunkPool", "alloc")
		if _, err := th.Alloc(2, scratchSize); err != nil {
			return err
		}
		th.Return()
		if _, err := th.Alloc(6, rnd.SizeAround(messageSize, 0.3)); err != nil {
			return err
		}
		memo, err := th.Alloc(8, memoSize)
		if err != nil {
			return err
		}
		if rnd.Float64() < memoKeep {
			if err := h.AddRoot(memo); err != nil {
				return err
			}
			*memos = append(*memos, memo)
			if len(*memos) > memoQueue {
				victim := (*memos)[0]
				*memos = (*memos)[1:]
				if err := h.RemoveRoot(victim); err != nil {
					return err
				}
			}
		}
		th.Work(computeWorkPerChunk)
		env.CountOps(updatesPerChunk)
		if i%64 == 0 {
			th.ReleaseLocals()
		}
	}
	th.Return()
	th.ReleaseLocals()
	return nil
}

// ManualProfile implements core.App: the expert pretenures all nine batch
// sites — including the shared ChunkPool helper, directly, because the
// compute path's use of the pool went unnoticed (Table 1: 1/0 conflicts).
// Scratch buffers therefore land in the batch generation under manual
// NG2C, which is why POLM2 edges it out on GraphChi (§5.4).
func (a *App) ManualProfile(workloadName string) (*analyzer.Profile, error) {
	if _, err := params(workloadName); err != nil {
		return nil, err
	}
	p := &analyzer.Profile{
		App:         "GraphChi",
		Workload:    workloadName,
		Generations: 1,
		Conflicts:   0,
	}
	for _, site := range batchSites {
		loc := jvm.CodeLoc{Class: "MemoryShard", Method: site.method, Line: 2}
		if site.pooled {
			loc = jvm.CodeLoc{Class: "ChunkPool", Method: "alloc", Line: 2}
		}
		p.Allocs = append(p.Allocs, analyzer.AllocDirective{Loc: loc.String(), Gen: 1, Direct: true})
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("graphchi: manual profile: %w", err)
	}
	return p, nil
}
