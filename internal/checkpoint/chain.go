package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"eventspace/internal/archive"
)

// FilePattern matches checkpoint sidecar files in an archive directory.
const FilePattern = "ckpt-*.eckpt"

// FileName names checkpoint seq's sidecar file.
func FileName(seq uint32) string { return fmt.Sprintf("ckpt-%08d.eckpt", seq) }

// Entry is one file of a checkpoint chain, as listed on disk. Listing
// does not validate contents — Load does.
type Entry struct {
	Seq  uint32
	Path string
	Size int64
}

// List returns the directory's checkpoint chain, oldest first. Files
// whose names do not parse are ignored (they are not chain members).
func List(dir string) ([]Entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, FilePattern))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, p := range paths {
		var seq uint32
		if _, err := fmt.Sscanf(filepath.Base(p), "ckpt-%d.eckpt", &seq); err != nil {
			continue
		}
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		out = append(out, Entry{Seq: seq, Path: p, Size: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Load reads and validates one chain entry.
func Load(path string) (Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	return Decode(buf)
}

// ChainInfo summarizes a LoadNewest walk for diagnostics: how long the
// on-disk chain is and how many entries had to be skipped as torn or
// corrupt before one validated.
type ChainInfo struct {
	Entries int      // chain files on disk
	Skipped int      // newest-first entries rejected before the winner
	Bad     []string // paths of the rejected entries
}

// LoadNewest walks the chain newest-first and returns the first
// checkpoint that validates. Torn and CRC-corrupt entries are skipped —
// recorded in ChainInfo, never trusted. ok is false when no entry
// validates (recovery then falls back to full replay).
func LoadNewest(dir string) (Checkpoint, ChainInfo, bool) {
	entries, _ := List(dir) // an unlistable chain is an absent one
	info := ChainInfo{Entries: len(entries)}
	for i := len(entries) - 1; i >= 0; i-- {
		cp, err := Load(entries[i].Path)
		if err != nil {
			info.Skipped++
			info.Bad = append(info.Bad, entries[i].Path)
			continue
		}
		return cp, info, true
	}
	return Checkpoint{}, info, false
}

// write persists checkpoint seq's encoded frame through the crash seam:
// an armed CrashCheckpoint site tears the write mid-frame, leaving a
// file whose CRC cannot validate — exactly the torn state LoadNewest
// must skip.
func write(dir string, seq uint32, frame []byte, cps *archive.CrashPoints) error {
	f, err := os.OpenFile(filepath.Join(dir, FileName(seq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	crashed, werr := cps.TornWrite(archive.CrashCheckpoint, f, frame)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if crashed {
		return archive.ErrInjectedCrash
	}
	return cerr
}

// prune deletes the chain files beyond the newest keep, oldest first —
// which keeps the fallback ladder intact if pruning itself is cut short.
// The chain is the checkpointer's own record of it (what New listed plus
// what it has written since), so a checkpoint costs one Remove, not a
// directory listing. A file already gone is what pruning wanted.
func (c *Checkpointer) prune() error {
	var first error
	drop := max(len(c.chain)-keep, 0)
	for _, seq := range c.chain[:drop] {
		err := os.Remove(filepath.Join(c.dir, FileName(seq)))
		if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	c.chain = append(c.chain[:0], c.chain[drop:]...)
	return first
}
