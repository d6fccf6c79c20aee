// Package goroleak is a lint fixture for the goroutine-leak analyzer:
// every goroutine started in an instrumented package must be a
// vclock.Go launch with a reachable stop path in its control flow.
package goroleak

import "eventspace/internal/vclock"

// Puller mirrors the escope.Puller run-loop shapes.
type Puller struct {
	stop   chan struct{}
	events chan int
	pull   func() int
}

// StartLeaky launches the Puller leak shape: a pull loop with no stop
// check can never terminate. Registration does not make an
// unstoppable body stoppable.
func (p *Puller) StartLeaky() {
	vclock.Go(p.runForever) // want `can never terminate`
}

func (p *Puller) runForever() {
	for {
		p.events <- p.pull()
	}
}

// StartStoppable is the accepted shape: the select observes stop and
// returns.
func (p *Puller) StartStoppable() {
	vclock.Go(p.run)
}

func (p *Puller) run() {
	for {
		select {
		case <-p.stop:
			return
		case p.events <- p.pull():
		}
	}
}

// StartObserverOnly observes the stop channel but never acts on it:
// the loop still cannot terminate.
func (p *Puller) StartObserverOnly() {
	vclock.Go(func() { // want `can never terminate`
		for {
			select {
			case <-p.stop:
				// seen, but the loop goes around again
			case p.events <- p.pull():
			}
		}
	})
}

// StartBounded runs a bounded drain: straight-line termination.
func (p *Puller) StartBounded(n int) {
	vclock.Go(func() {
		for i := 0; i < n; i++ {
			p.events <- p.pull()
		}
	})
}

// StartDynamic launches a func value: not resolvable, not checked.
func (p *Puller) StartDynamic(fn func()) {
	vclock.Go(fn)
}

// StartAllowed carries the annotation form with its mandatory reason.
func (p *Puller) StartAllowed() {
	//lint:allow goroleak daemon by design, killed with the process
	vclock.Go(p.runForever)
}

// Recorder mirrors the archive.Recorder drain shapes.
type Recorder struct {
	queue *vclock.Queue[int]
}

// StartDrain is the archive final-drain deadlock: the drain loop
// terminates, but a plain goroutine parking in Pop corrupts the
// clock's runnable count and stalls RunVirtual.
func (r *Recorder) StartDrain() {
	go r.drainLoop() // want `plain go statement in goroleak: start it with vclock\.Go`
}

func (r *Recorder) drainLoop() {
	for r.drainOne() {
	}
}

func (r *Recorder) drainOne() bool {
	_, ok := r.queue.Pop()
	return ok
}
