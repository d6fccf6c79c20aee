// Package vcregister is a lint fixture for the clock-registration
// analyzer: a plain goroutine that reaches a vclock-blocking call must
// be a registered model participant, or the clock's runnable count
// corrupts (the archive final-drain deadlock, PR 4).
package vcregister

import (
	"time"

	"eventspace/internal/hrtime"
	"eventspace/internal/vclock"
)

// Recorder mirrors the archive.Recorder drain shapes.
type Recorder struct {
	queue *vclock.Queue[int]
	done  chan struct{}
}

// StartUnregistered is the PR-4 bug: a plain goroutine sleeping on the
// modelled clock.
func (r *Recorder) StartUnregistered() {
	go func() { // want `unregistered goroutine .* vclock\.Sleep`
		vclock.Sleep(time.Millisecond)
	}()
}

// StartModel is the fix: vclock.Go registers the goroutine for its
// whole lifetime.
func (r *Recorder) StartModel() {
	vclock.Go(func() {
		vclock.Sleep(time.Millisecond)
	})
}

// StartTransitive reaches the blocking Pop two local calls deep.
func (r *Recorder) StartTransitive() {
	go r.drainLoop() // want `unregistered goroutine .*Pop \(via drainOne\)`
}

func (r *Recorder) drainLoop() {
	for r.drainOne() {
	}
}

func (r *Recorder) drainOne() bool {
	_, ok := r.queue.Pop()
	return ok
}

// StartDriver uses the deliberately-unregistered sleep: legal for
// drivers that must not count as model goroutines.
func (r *Recorder) StartDriver() {
	go func() {
		hrtime.SleepOutside(time.Millisecond)
		close(r.done)
	}()
}

// StartPlain parks on an ordinary channel only: no modelled work, no
// registration needed.
func (r *Recorder) StartPlain() {
	go func() {
		<-r.done
	}()
}

// StartAllowed documents an accepted exception.
func (r *Recorder) StartAllowed() {
	//lint:allow vcregister registration happens inside Pop's callee in this shape
	go func() {
		vclock.Sleep(time.Millisecond)
	}()
}
