//go:build !(linux && amd64)

package hrtime

// now is the real clock: off linux/amd64 there is no counter to read.
func now() int64 { return sinceEpoch() }
