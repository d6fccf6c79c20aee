package main

import "time"

// The sandbox this benchmark has to be steady on is a two-core VM on a
// shared host, and the host has slow spells: for minutes at a time
// everything — including a loop that touches nothing but registers — runs
// 20 to 60 percent slower, then recovers. A spell outlasts a run, so no
// statistic over a run's own passes can see past it; ten runs of one
// commit spread by 15-30 percent on every timing.
//
// What a run can do is measure the spell. Before every pass it times a
// fixed kernel of the benchmark's own (no call into the program, so no
// change to the program can move it), and the run's slowdown is the median
// of those samples over the kernel's nominal duration. The end-to-end
// timings and rates a run reports are divided, or multiplied, by that one
// number: they are the timings of the same work at the reference speed.
// The raw values stay in the table and in -out records, and the per-layer
// metrics are never scaled. Across the same runs the scaled timings spread
// about half as wide as the raw ones; what remains is that a spell does
// not slow all code alike (the simulator, all goroutine hand-offs, suffers
// most).

// calNominalMS is the kernel's duration on the undisturbed sandbox
// (go1.24, Xeon 2.1 GHz). On another machine it is merely a constant
// factor in every timing, the same for both sides of any comparison.
const calNominalMS = 9.0

// The kernel's data: a megabyte hashed in sequence, and a four-megabyte
// table of indices walked in dependent random order.
var (
	calSeq  = make([]byte, 1<<20)
	calRand = make([]uint32, 1<<20)
	calSink uint64
)

func init() {
	r := rng{s: 42}
	for i := range calSeq {
		calSeq[i] = byte(r.next())
	}
	for i := range calRand {
		calRand[i] = uint32(r.next()) & (1<<20 - 1)
	}
}

// calibrate runs the kernel once — integer arithmetic, a sequential hash,
// dependent random reads: the mix the program's own hot paths have — and
// returns its duration in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 400_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	h := uint64(14695981039346656037)
	for _, b := range calSeq {
		h = (h ^ uint64(b)) * 1099511628211
	}
	j := uint32(x) & (1<<20 - 1)
	for i := 0; i < 100_000; i++ {
		j = calRand[j] ^ uint32(i)&(1<<20-1)
	}
	calSink += x + h + uint64(j)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
