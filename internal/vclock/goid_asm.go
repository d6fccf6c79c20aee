//go:build amd64 || arm64

package vclock

// getg returns the calling goroutine's runtime descriptor address, an
// identity that stays fixed for the goroutine's life (goid_amd64.s,
// goid_arm64.s).
func getg() uintptr
