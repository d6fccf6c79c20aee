// Deterministic crash-point injection. The archive's crash-recovery
// contract — torn tails truncated, unsealed headers re-indexed,
// checkpoint chains falling back past torn frames — is only trustworthy
// if the crashes it survives are the crashes that actually happen:
// writes torn mid-flight, not clean shutdowns. CrashPoints is the
// seeded seam the chaos matrix drives: it arms named sites inside the
// writer (and the checkpoint writer, which shares the options) and, on
// the armed occurrence, persists only a seed-derived prefix of the
// in-flight write before the writer goes sticky-dead with
// ErrInjectedCrash. The process keeps running, but the archive is left
// byte-for-byte as a power cut at that instant would leave it.
//
// The seal header rewrite (64 bytes at offset 0, a single sector) is
// modelled as atomic: CrashSeal fires before the block index is written
// and CrashSealIndex after it, both leaving the provisional unsealed
// header, and CrashRotate fires after the seal but before the next
// segment's header write, leaving a header-less empty file — the states
// a real crash around rotation produces.
package archive

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrInjectedCrash is the sticky error a writer reports after an armed
// crash point fired. Everything already persisted before the tear is
// valid; the torn write and all later appends are lost, exactly as if
// the process had died.
var ErrInjectedCrash = errors.New("archive: injected crash")

// CrashSite names one injection site.
type CrashSite uint8

// Injection sites.
const (
	// CrashBlockFlush tears a data-block write mid-payload.
	CrashBlockFlush CrashSite = iota + 1
	// CrashSeal fires between the final block flush and the block
	// index write: the segment keeps its provisional unsealed header.
	CrashSeal
	// CrashRotate fires after the old segment sealed but before the new
	// segment's header write: a header-less empty file is left behind.
	CrashRotate
	// CrashCheckpoint tears a checkpoint-frame write mid-payload,
	// leaving a torn ckpt-*.eckpt file whose CRC cannot validate.
	CrashCheckpoint
	// CrashSealIndex fires between the block index write and the seal
	// header rewrite: the unsealed segment ends in index bytes, which a
	// reopen cuts as a torn tail.
	CrashSealIndex

	numCrashSites
)

// String names the site.
func (s CrashSite) String() string {
	switch s {
	case CrashBlockFlush:
		return "block-flush"
	case CrashSeal:
		return "seal"
	case CrashRotate:
		return "rotate"
	case CrashCheckpoint:
		return "checkpoint"
	case CrashSealIndex:
		return "seal-index"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// CrashSpec arms one site: the crash fires on the Count-th time the
// site is reached (1-based; Count <= 0 means the first).
type CrashSpec struct {
	Site  CrashSite
	Count int
}

// CrashPoints is a seeded, deterministic crash schedule. Each armed
// site fires at most once; the tear fraction — how much of the
// in-flight write survives — is derived from the seed and the site, so
// the same plan tears the same bytes every run.
type CrashPoints struct {
	// Seed drives the tear fractions. Two plans with the same specs but
	// different seeds crash at the same sites with different torn
	// prefixes.
	Seed uint64
	// Specs are the armed sites.
	Specs []CrashSpec

	mu    sync.Mutex
	hits  [numCrashSites]int
	done  [numCrashSites]bool
	fired []CrashSite
}

// hit records that a site was reached and reports whether an armed
// crash fires now, along with the deterministic fraction of the
// in-flight write to keep. Nil receivers never fire.
func (c *CrashPoints) hit(site CrashSite) (keepFrac float64, fire bool) {
	if c == nil || int(site) >= int(numCrashSites) {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[site]++
	if c.done[site] {
		return 0, false
	}
	for _, sp := range c.Specs {
		if sp.Site != site {
			continue
		}
		at := sp.Count
		if at <= 0 {
			at = 1
		}
		if c.hits[site] == at {
			c.done[site] = true
			c.fired = append(c.fired, site)
			return c.frac(site), true
		}
	}
	return 0, false
}

// frac derives the site's tear fraction in [0, 1) from the seed via
// splitmix64 — deterministic, and decorrelated across sites.
func (c *CrashPoints) frac(site CrashSite) float64 {
	x := c.Seed + 0x9e3779b97f4a7c15*uint64(site+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(uint64(1)<<53)
}

// Fired returns the sites that have fired, in firing order.
func (c *CrashPoints) Fired() []CrashSite {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CrashSite(nil), c.fired...)
}

// TornWrite is the cooperative seam for sidecar writers sharing the
// archive's crash plan (the checkpoint writer): if site is armed and
// fires now, only a seed-derived strict prefix of buf reaches w and
// crashed reports true with ErrInjectedCrash; otherwise buf is written
// whole. Nil receivers never crash.
func (c *CrashPoints) TornWrite(site CrashSite, w io.Writer, buf []byte) (crashed bool, err error) {
	if frac, fire := c.hit(site); fire {
		if keep := tearLen(len(buf), frac); keep > 0 {
			if _, werr := w.Write(buf[:keep]); werr != nil {
				return true, werr
			}
		}
		return true, ErrInjectedCrash
	}
	_, err = w.Write(buf)
	return false, err
}

// tear returns how many bytes of an n-byte in-flight write survive the
// crash: a seed-derived strict prefix, so the on-disk tail is torn.
func tearLen(n int, keepFrac float64) int {
	if n <= 0 {
		return 0
	}
	keep := int(keepFrac * float64(n))
	if keep >= n {
		keep = n - 1
	}
	if keep < 0 {
		keep = 0
	}
	return keep
}
