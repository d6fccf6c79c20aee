// Package lockedsend is a lint fixture: blocking sends while holding a
// mutex are the monitor's deadlock class.
package lockedsend

import "sync"

type S struct {
	mu sync.Mutex
	ch chan int
}

// badSend blocks on the channel while the receiver may be stuck on mu.
func (s *S) badSend() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send s\.ch <- \.\.\. while holding s\.mu`
	s.mu.Unlock()
}

// goodSend releases first.
func (s *S) goodSend() {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

// deferHeld: a deferred unlock holds the lock for the whole body.
func (s *S) deferHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want `channel send s\.ch <- \.\.\. while holding s\.mu`
}

// nonBlocking: select with default cannot block, allowed under a lock.
func (s *S) nonBlocking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

// blockingSelect: no default, the send blocks.
func (s *S) blockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // want `blocking select send s\.ch <- \.\.\. while holding s\.mu`
	}
}

// goroutineUnderLock: the goroutine body runs without this frame's
// locks, so its send is fine.
func (s *S) goroutineUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

// branchScoped: a lock taken inside a branch does not leak out.
func (s *S) branchScoped(cond bool) {
	if cond {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.ch <- 1
}

// annotated documents a known-safe send (e.g. buffered channel sized
// to the senders).
func (s *S) annotated() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 //lint:allow lockedsend channel is buffered to the sender count
}
