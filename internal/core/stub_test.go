package core

import (
	"fmt"
	"time"

	"polm2/internal/analyzer"
	"polm2/internal/heap"
	"polm2/internal/workload"
)

// stubApp is a minimal core.App used by the core package's own tests: it
// allocates one transient and one retained object per operation.
type stubApp struct{}

var _ App = (*stubApp)(nil)

func (*stubApp) Name() string        { return "stub" }
func (*stubApp) Workloads() []string { return []string{"w"} }

func (*stubApp) Run(env *Env, workloadName string) error {
	if workloadName != "w" {
		return fmt.Errorf("stub: unknown workload %q", workloadName)
	}
	th := env.VM().NewThread("stub")
	th.Enter("Stub", "run")
	pacer, err := workload.NewPacer(env.Clock(), 200)
	if err != nil {
		return err
	}
	var retained []retainedEntry
	h := env.Heap()
	for !env.Done() {
		pacer.Await()
		// Transient garbage.
		if _, err := th.Alloc(10, 8192); err != nil {
			return err
		}
		// Retained for ~40 seconds.
		th.Call(20, "Store", "put")
		obj, err := th.Alloc(3, 1024)
		th.Return()
		if err != nil {
			return err
		}
		if err := h.AddRoot(obj); err != nil {
			return err
		}
		retained = append(retained, retainedEntry{obj: obj, expiry: env.Now() + 40*time.Second})
		for len(retained) > 0 && retained[0].expiry <= env.Now() {
			if err := h.RemoveRoot(retained[0].obj); err != nil {
				return err
			}
			retained = retained[1:]
		}
		th.ReleaseLocals()
		env.CountOps(1)
	}
	return nil
}

type retainedEntry struct {
	obj    *heap.Object
	expiry time.Duration
}

func (*stubApp) ManualProfile(workloadName string) (*analyzer.Profile, error) {
	if workloadName != "w" {
		return nil, fmt.Errorf("stub: unknown workload %q", workloadName)
	}
	p := &analyzer.Profile{
		App:         "stub",
		Workload:    workloadName,
		Generations: 1,
		Allocs:      []analyzer.AllocDirective{{Loc: "Store.put:3", Gen: 1, Direct: true}},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func stubProfile() *analyzer.Profile {
	p, err := (&stubApp{}).ManualProfile("w")
	if err != nil {
		panic(err)
	}
	return p
}
