package goroleak

import "testing"

// Test goroutines die with the test binary: a plain go statement in a
// _test.go file is not a finding.
func TestDrain(t *testing.T) {
	r := &Recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.queue
	}()
	<-done
}
