package main

import (
	"context"
	"sync"
	"sync/atomic"

	"fvp"
	"fvp/internal/simd"
)

// startSweep sets up a library sweep: two clients call fvp.RunContext, the
// way a sweep script with two workers (or fvpd's worker pool) does. Set-up
// is a warm-up pass.
func startSweep(ctx context.Context, e *env, ins []input) (*system, error) {
	run := fvp.RunContext
	if e.tr != nil {
		run = func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			key := simd.SpecKey(spec)
			if !e.tr.tracing(key) {
				return fvp.RunContext(ctx, spec)
			}
			return composedRun(ctx, e.tr, key, spec)
		}
	}
	sys := &system{
		clients: 2,
		do: func(ctx context.Context, in *input) (reply, error) {
			m, err := run(ctx, in.spec)
			return reply{metrics: m}, err
		},
		check: func(r reply, want string) (bool, float64, error) {
			return digestOf(r.metrics) == want, r.metrics.IPC, nil
		},
		appends: func() uint64 { return 0 },
		close:   func() {},
	}
	return sys, warmUp(ctx, sys, ins)
}

// warmUp runs one short simulation of every workload and machine in ins,
// on sys's clients, so that the timed phase finds each program's code
// paths and each machine's core pool warm. Its specs are outside every
// input set, and their results are not checked.
func warmUp(ctx context.Context, sys *system, ins []input) error {
	seen := map[string]bool{}
	var warm []input
	for _, in := range ins {
		n := in.spec.Normalized()
		if k := n.Workload + "/" + string(n.Machine); !seen[k] {
			seen[k] = true
			warm = append(warm, newInput(fvp.RunSpec{Workload: n.Workload, Machine: n.Machine,
				Predictor: fvp.PredFVP, WarmupInsts: 1000, MeasureInsts: 2000}))
		}
	}
	var next atomic.Int64
	errs := make([]error, sys.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[c] == nil {
				i := int(next.Add(1) - 1)
				if i >= len(warm) {
					return
				}
				_, errs[c] = sys.do(ctx, &warm[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
