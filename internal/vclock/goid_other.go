//go:build !amd64 && !arm64

package vclock

import "runtime"

// getg returns the calling goroutine's id, parsed from the header line
// runtime.Stack writes ("goroutine 42 [running]:"). It costs a stack
// walk; amd64 and arm64 read the goroutine descriptor instead
// (goid_amd64.s, goid_arm64.s).
func getg() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = len("goroutine ")
	var id uintptr
	for i := prefix; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uintptr(b[i]-'0')
	}
	return id
}
