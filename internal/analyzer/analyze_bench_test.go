package analyzer_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/apps/lucene"
	"polm2/internal/core"
)

// luceneArtifacts is a recorded Lucene profiling run (allocation records on
// disk, snapshots in memory), built once per test process.
var luceneArtifacts struct {
	once sync.Once
	pr   *core.ProfileResult
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if pr := luceneArtifacts.pr; pr != nil {
		os.RemoveAll(pr.RecordsDir)
	}
	os.Exit(code)
}

// recordedLucene returns the shared artifact set: Lucene's default
// workload profiled for 5 simulated minutes at the default scale, a
// snapshot after every GC cycle.
func recordedLucene(b *testing.B) *core.ProfileResult {
	b.Helper()
	a := &luceneArtifacts
	a.once.Do(func() {
		dir, err := os.MkdirTemp("", "polm2-analyzer-bench-")
		if err != nil {
			a.err = err
			return
		}
		a.pr, a.err = core.ProfileApp(lucene.New(), lucene.Workload,
			core.ProfileOptions{Seed: 1, Duration: 5 * time.Minute, RecordsDir: dir})
	})
	if a.err != nil {
		b.Fatal(a.err)
	}
	return a.pr
}

// BenchmarkAnalyzeLucene measures the Analyzer layer on its own: evidence
// gathering (record decode and the page-credit snapshot replay) plus
// synthesis (estimation, STTree, conflict resolution) over a recorded
// Lucene artifact set.
func BenchmarkAnalyzeLucene(b *testing.B) {
	pr := recordedLucene(b)
	opts := analyzer.Options{App: "Lucene", Workload: lucene.Workload}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := analyzer.Analyze(pr.RecordsDir, pr.Snapshots, opts)
		if err != nil {
			b.Fatal(err)
		}
		if p.InstrumentedSites() == 0 {
			b.Fatal("analysis instruments no site")
		}
	}
}
