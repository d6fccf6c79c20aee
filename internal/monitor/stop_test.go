package monitor

// Regression tests for the Stop double-close bug class (the closeonce
// analyzer's first real catches): Statsm.Stop and LoadBalance.Stop
// guarded teardown with a plain boolean, so two goroutines racing into
// Stop could both observe stopped == false and both close the stop
// channel — the same shape as PR 2's Puller.Stop panic. Teardown now
// runs under a sync.Once; these tests hammer Stop concurrently (run
// them with -race) and then call it again serially to prove
// idempotence.

import (
	"sync"
	"testing"

	"eventspace/internal/cosched"
)

// stopConcurrently invokes stop from many goroutines released by one
// starting gun, maximizing the double-close window. The stoppers are
// drivers, not model goroutines: Stop waits for the monitor's threads on
// a plain WaitGroup, which a registered goroutine must not block on.
func stopConcurrently(t *testing.T, stop func()) {
	t.Helper()
	const goroutines = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("concurrent Stop panicked: %v", r)
				}
			}()
			stop()
		}()
	}
	close(start)
	wg.Wait()
}

func TestStatsmConcurrentStop(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.Strategy = cosched.None
	sm, err := NewStatsm(tb, tree, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm.Start()
	stopConcurrently(t, sm.Stop)
	sm.Stop() // late serial Stop stays a no-op
}

func TestLoadBalanceConcurrentStop(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.LoadBalanceCostPerTuple = 0
	lb, err := NewLoadBalance(tb, tree, SingleScope, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	stopConcurrently(t, lb.Stop)
	lb.Stop()
}

func TestLoadBalanceDistributedConcurrentStop(t *testing.T) {
	virtual(t)
	tb, tree := buildRig(t, nil)
	cfg := DefaultConfig()
	cfg.AnalysisCostPerTuple = 0
	cfg.LoadBalanceCostPerTuple = 0
	lb, err := NewLoadBalance(tb, tree, Distributed, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	stopConcurrently(t, lb.Stop)
	lb.Stop()
}
