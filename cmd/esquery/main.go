// Command esquery queries and replays EventSpace trace archives: the
// persistent segment directories written by
// System.AttachArchiveCheckpointed (or an archive.Writer directly). Everything it prints is computed from the
// archived tuples' own timestamps, so running it twice over the same
// archive produces byte-identical output (watch, which follows a live
// directory, is the one exception).
//
// Usage:
//
//	esquery info    -dir DIR
//	esquery query   -dir DIR -q "select * where ecid in (1, 2) and latency > 500us limit 10"
//	esquery replay  -dir DIR [-ecids 1,2] [-ops read,write,alert] [-min N] [-max N]
//	                [-since D] [-until D] [-monitor loadbalance|stats|alerts]
//	                [-window N] [-alerts "stmt[; stmt]"]
//	esquery watch   -dir DIR -q "alert when ..." [-poll D] [-once]
//
// info lists the segments and their header indexes; query runs one esql
// statement (select * streams tuples, aggregate selects print a result
// table, alert statements replay the archive's data tuples through the
// continuous-query engine); replay feeds the archive — narrowed by its
// filter flags — through the load-balance or statistics join offline, or,
// with -monitor alerts, regenerates an alert stream and verifies it
// against the archived alert tuples; watch tails a live archive
// directory, evaluating standing alert statements as segments grow.
//
// replay refuses a flag its -monitor mode would ignore: -window belongs
// to stats, -alerts to alerts, and alerts takes no filter flag (the
// engine needs the whole stream to regenerate faithfully). loadbalance
// and stats share one roster walk, with two deliberate rules: it refuses
// a node that has only a collective (no contributors to rank), and over
// metadata with no collective at all stats prints an empty tree.
//
// Select predicates are pushed down into the archive's header-index and
// columnar block-skip paths, so selective queries touch only the
// segments they must.
//
// Exit status: 0 ok, 1 query/replay failure, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/collect"
	"eventspace/internal/query"
	"eventspace/internal/viz"
)

// usageError marks an error caused by bad invocation (exit 2) rather
// than a failing query (exit 1).
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, "usage: esquery <info|query|replay|watch> -dir DIR [flags]")
	fmt.Fprintln(w, "run 'esquery <subcommand> -h' for the subcommand's flags")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run dispatches one invocation and maps its error to an exit status.
func run(args []string, stderr io.Writer) int {
	if len(args) < 1 {
		printUsage(stderr)
		return 2
	}
	sub, rest := args[0], args[1:]
	var err error
	switch sub {
	case "info":
		err = runInfo(rest)
	case "query":
		err = runQuery(rest)
	case "replay":
		err = runReplay(rest)
	case "watch":
		err = runWatch(rest)
	default:
		fmt.Fprintf(stderr, "esquery: unknown subcommand %q\n", sub)
		printUsage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "esquery:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	return 0
}

// newFlagSet builds a subcommand flag set whose errors flow back as
// usage errors naming the offending flag, instead of exiting inline.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseFlags parses args, converting failures into usage errors that
// say which flag was at fault (the flag package's own message does).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
			return usageError{errors.New("help requested")}
		}
		return usageError{err}
	}
	return nil
}

// queryFlags registers the shared -dir and filter flags on fs. The
// filter flags narrow what replay scans: they compile to an esql
// predicate and ride the same pushdown as an explicit -q statement.
type queryFlags struct {
	dir   *string
	ecids *string
	ops   *string
	min   *int64
	max   *int64
	since *time.Duration
	until *time.Duration
}

func addQueryFlags(fs *flag.FlagSet) *queryFlags {
	return &queryFlags{
		dir:   fs.String("dir", "", "archive directory (required)"),
		ecids: fs.String("ecids", "", "comma-separated event-collector ids to keep (empty: all)"),
		ops:   fs.String("ops", "", "comma-separated op kinds to keep: read,write,alert (empty: all)"),
		min:   fs.Int64("min", 0, "minimum tuple Start stamp, inclusive"),
		max:   fs.Int64("max", 0, "maximum tuple Start stamp, inclusive (0: unbounded)"),
		since: fs.Duration("since", 0, "minimum tuple Start as model time past the virtual epoch (e.g. 800us); overrides -min"),
		until: fs.Duration("until", 0, "maximum tuple Start as model time past the virtual epoch (0: unbounded); overrides -max"),
	}
}

// predicate compiles the filter flags into an esql where-predicate
// (empty when the flags select everything).
func (qf *queryFlags) predicate() (string, error) {
	var conj []string
	if *qf.ecids != "" {
		var ids []string
		for _, s := range strings.Split(*qf.ecids, ",") {
			id, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
			if err != nil {
				return "", usagef("-ecids: %v", err)
			}
			ids = append(ids, strconv.FormatUint(id, 10))
		}
		conj = append(conj, "ecid in ("+strings.Join(ids, ", ")+")")
	}
	if *qf.ops != "" {
		var ops []string
		for _, s := range strings.Split(*qf.ops, ",") {
			op := strings.TrimSpace(s)
			switch op {
			case "read", "write", "alert":
				ops = append(ops, op)
			default:
				return "", usagef("-ops: unknown op %q (want read, write or alert)", s)
			}
		}
		conj = append(conj, "op in ("+strings.Join(ops, ", ")+")")
	}
	if *qf.until < 0 || *qf.since < 0 {
		return "", usagef("-since/-until must be non-negative")
	}
	// -since/-until express the same stamp range as model time past the
	// virtual epoch; both spellings compile to start bounds, which the
	// static pushdown turns back into the segment header-index skip.
	min, max := *qf.min, *qf.max
	if *qf.since > 0 {
		min = int64(*qf.since)
	}
	if *qf.until > 0 {
		max = int64(*qf.until)
	}
	if min > 0 {
		conj = append(conj, fmt.Sprintf("start >= %d", min))
	}
	if max > 0 {
		conj = append(conj, fmt.Sprintf("start <= %d", max))
	}
	return strings.Join(conj, " and "), nil
}

// open opens the archive named by -dir.
func (qf *queryFlags) open() (*archive.Reader, error) {
	if *qf.dir == "" {
		return nil, usagef("-dir is required")
	}
	return archive.OpenReader(*qf.dir)
}

func runInfo(args []string) error {
	fs := newFlagSet("esquery info")
	qf := addQueryFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	r, err := qf.open()
	if err != nil {
		return err
	}
	segs := r.Segments()
	fmt.Printf("archive %s: %d segments, %d tuples\n", r.Dir(), len(segs), r.Tuples())
	for _, s := range segs {
		state := "sealed"
		if !s.Sealed {
			state = "open"
		}
		if s.Torn {
			state += ",torn"
		}
		fmt.Printf("  seg %4d  %-11s %8d B  %6d tuples  %4d blocks  ecids [%d,%d]  stamps [%d,%d]\n",
			s.ID, state, s.Bytes, s.Index.Tuples, s.Index.Blocks,
			s.Index.MinECID, s.Index.MaxECID, s.Index.MinStamp, s.Index.MaxStamp)
	}
	if infos, err := archive.ReadMeta(r.Dir()); err == nil && len(infos) > 0 {
		fmt.Printf("collectors (%d):\n", len(infos))
		for _, in := range infos {
			fmt.Printf("  ec %4d  %-12s node %-14s contributor %2d  %s\n",
				in.ID, in.Role, in.Node, in.Contributor, in.Name)
		}
	}
	printCheckpoints(r)
	return nil
}

// printCheckpoints renders the archive's checkpoint chain, if any: each
// sidecar frame, which one recovery would restore from, and how much of
// the archive a recovery would actually replay (the suffix behind the
// newest valid checkpoint's cursor — the chain's whole point).
func printCheckpoints(r *archive.Reader) {
	entries, err := checkpoint.List(r.Dir())
	if err != nil || len(entries) == 0 {
		return
	}
	cp, info, ok := checkpoint.LoadNewest(r.Dir())
	bad := make(map[string]bool, len(info.Bad))
	for _, p := range info.Bad {
		bad[p] = true
	}
	if !ok {
		fmt.Printf("checkpoints (%d): none valid — recovery falls back to full replay\n", len(entries))
	} else {
		line := fmt.Sprintf("checkpoints (%d): newest seq %d at stamp %d, cursor %d tuples", len(entries), cp.Seq, cp.At, cp.Cursor.Tuples)
		if suffix, err := r.ScanBatches(&cp.Cursor, archive.Query{}, 0, func([]collect.TraceTuple) bool { return true }); err == nil {
			line += fmt.Sprintf(", replay suffix %d tuples / %d B", r.Tuples()-suffix.TuplesSkipped, suffix.BytesScanned)
		} else {
			line += fmt.Sprintf(", replay suffix unreadable (%v)", err)
		}
		fmt.Println(line)
	}
	for _, e := range entries {
		state := "ok"
		if bad[e.Path] {
			state = "torn"
		}
		fmt.Printf("  ckpt %4d  %-4s %8d B\n", e.Seq, state, e.Size)
	}
}

// printTuple renders one tuple in the select-* line format.
func printTuple(t collect.TraceTuple) bool {
	fmt.Printf("ec %4d  %-5s ret %3d  seq %8d  start %12d  end %12d  lat %s\n",
		t.ECID, t.Op, t.Ret, t.Seq, t.Start, t.End, time.Duration(t.End-t.Start))
	return true
}

// streamStmt runs a select-* statement against the archive, printing
// matching tuples and the pushdown accounting line.
func streamStmt(r *archive.Reader, stmt *query.Stmt) error {
	stats, err := query.Scan(r, stmt, printTuple)
	if err != nil {
		return err
	}
	fmt.Printf("%d tuples matched (%d scanned, %d/%d segments skipped)\n",
		stats.TuplesMatched, stats.TuplesScanned, stats.SegmentsSkipped, stats.Segments)
	return nil
}

// printResult renders an aggregate select's result table.
func printResult(res *query.Result) {
	if res.Grouped {
		fmt.Printf("%-6s ", "ecid")
	}
	if res.Windowed {
		fmt.Printf("%14s ", "bucket")
	}
	for _, c := range res.Cols {
		fmt.Printf("%16s ", c)
	}
	fmt.Println()
	for _, row := range res.Rows {
		if res.Grouped {
			fmt.Printf("%-6d ", row.Group)
		}
		if res.Windowed {
			fmt.Printf("%14d ", row.Bucket)
		}
		for _, v := range row.Vals {
			fmt.Printf("%16s ", v)
		}
		fmt.Println()
	}
}

// queryNames maps statement hashes to their canonical spellings, for
// labelling alert output.
func queryNames(stmts ...*query.Stmt) map[uint64]string {
	names := make(map[uint64]string, len(stmts))
	for _, s := range stmts {
		names[s.Hash()] = s.String()
	}
	return names
}

func runQuery(args []string) error {
	fs := newFlagSet("esquery query")
	qf := addQueryFlags(fs)
	qsrc := fs.String("q", "", "esql statement to run (required)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *qsrc == "" {
		return usagef("-q is required")
	}
	stmt, err := query.Parse(*qsrc)
	if err != nil {
		return usageError{err}
	}
	r, err := qf.open()
	if err != nil {
		return err
	}
	switch {
	case stmt.Alert:
		// Running an alert statement offline is a replay: the archive's
		// data tuples stream through a fresh engine.
		expected := 0
		if infos, err := archive.ReadMeta(r.Dir()); err == nil {
			expected = len(infos)
		}
		alerts, err := query.Replay(r, []*query.Stmt{stmt}, expected)
		if err != nil {
			return err
		}
		return viz.Alerts(os.Stdout, stmt.String(), alerts, queryNames(stmt))
	case stmt.Star:
		return streamStmt(r, stmt)
	default:
		res, stats, err := query.Run(r, stmt)
		if err != nil {
			return err
		}
		printResult(res)
		fmt.Printf("%d tuples matched (%d/%d segments skipped)\n",
			stats.TuplesMatched, stats.SegmentsSkipped, stats.Segments)
		return nil
	}
}

// parseAlertList parses a ';'-separated list of standing alert
// statements.
func parseAlertList(src string) ([]*query.Stmt, error) {
	var stmts []*query.Stmt
	for _, part := range strings.Split(src, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		st, err := query.Parse(part)
		if err != nil {
			return nil, usageError{err}
		}
		if !st.Alert {
			return nil, usagef("%q is not an alert statement", part)
		}
		stmts = append(stmts, st)
	}
	if len(stmts) == 0 {
		return nil, usagef("no alert statements given")
	}
	return stmts, nil
}

func runReplay(args []string) error {
	fs := newFlagSet("esquery replay")
	qf := addQueryFlags(fs)
	mon := fs.String("monitor", "loadbalance", "what to replay: loadbalance, stats (an empty tree when no node has a collective), or alerts; loadbalance and stats refuse a node with only a collective")
	window := fs.Int("window", 0, "sliding median window for -monitor stats (0: default)")
	alertsSrc := fs.String("alerts", "", "standing alert statements for -monitor alerts, ';'-separated")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// The flags each mode would drop without a word.
	ignored := map[string][]string{
		"loadbalance": {"window", "alerts"},
		"stats":       {"alerts"},
		"alerts":      {"ecids", "ops", "min", "max", "since", "until", "window"},
	}[*mon]
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range ignored {
		if set[name] {
			return usagef("-%s does not apply to -monitor %s", name, *mon)
		}
	}
	pred, err := qf.predicate()
	if err != nil {
		return err
	}
	var q archive.Query
	if pred != "" {
		// The replay filters reuse the esql parse + pushdown path; for
		// these flag shapes the extraction is exact, not just
		// conservative.
		stmt, err := query.Parse("select * where " + pred)
		if err != nil {
			// The flags were already validated; a parse failure here is a
			// compiler bug, not a user error.
			return fmt.Errorf("internal: flags compiled to bad esql predicate %q: %v", pred, err)
		}
		q = stmt.Pushdown()
	}
	r, err := qf.open()
	if err != nil {
		return err
	}
	switch *mon {
	case "loadbalance", "stats":
		infos, err := archive.ReadMeta(r.Dir())
		if err != nil {
			return err
		}
		if *mon == "loadbalance" {
			rep, stats, err := archive.ReplayLastArrival(r, infos, q)
			if err != nil {
				return err
			}
			fed, matched, _ := rep.Fed()
			fmt.Printf("replayed %d tuples (%d contributor tuples, %d rounds lost, %d/%d segments skipped)\n",
				fed, matched, rep.Lost(), stats.SegmentsSkipped, stats.Segments)
			return viz.WeightedTree(os.Stdout, rep.Weighted())
		}
		rep, stats, err := archive.ReplayStats(r, infos, q, *window)
		if err != nil {
			return err
		}
		fed, _, matched := rep.Fed()
		fmt.Printf("replayed %d tuples (%d joined, %d rounds, %d/%d segments skipped)\n",
			fed, matched, rep.RoundsAnalyzed(), stats.SegmentsSkipped, stats.Segments)
		return viz.AnalysisTree(os.Stdout, rep.Tree(), nil)
	case "alerts":
		if *alertsSrc == "" {
			return usagef("-monitor alerts needs -alerts \"stmt[; stmt]\"")
		}
		stmts, err := parseAlertList(*alertsSrc)
		if err != nil {
			return err
		}
		expected := 0
		if infos, err := archive.ReadMeta(r.Dir()); err == nil {
			expected = len(infos)
		}
		// Regenerate from the data tuples, then verify against the alert
		// tuples the live engine archived.
		regen, err := query.Replay(r, stmts, expected)
		if err != nil {
			return err
		}
		archived, _, err := archive.ReplayAlerts(r, archive.Query{})
		if err != nil {
			return err
		}
		if err := viz.Alerts(os.Stdout, "replayed "+r.Dir(), regen, queryNames(stmts...)); err != nil {
			return err
		}
		if len(archived) == 0 {
			fmt.Printf("no archived alerts to verify against (%d regenerated)\n", len(regen))
			return nil
		}
		if len(archived) != len(regen) {
			return fmt.Errorf("alert stream mismatch: %d archived, %d regenerated", len(archived), len(regen))
		}
		for i := range archived {
			if archived[i] != regen[i] {
				return fmt.Errorf("alert stream mismatch at #%d: archived %+v, regenerated %+v", i, archived[i], regen[i])
			}
		}
		fmt.Printf("alert streams match (%d alerts)\n", len(regen))
		return nil
	default:
		return usagef("-monitor: unknown monitor %q (want loadbalance, stats or alerts)", *mon)
	}
}

func runWatch(args []string) error {
	fs := newFlagSet("esquery watch")
	dir := fs.String("dir", "", "archive directory to follow (required)")
	qsrc := fs.String("q", "", "standing alert statements, ';'-separated (required)")
	poll := fs.Duration("poll", time.Second, "poll interval between archive re-scans")
	once := fs.Bool("once", false, "evaluate what the archive holds now, then exit")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return usagef("-dir is required")
	}
	if *qsrc == "" {
		return usagef("-q is required")
	}
	if *poll <= 0 {
		return usagef("-poll must be positive")
	}
	stmts, err := parseAlertList(*qsrc)
	if err != nil {
		return err
	}
	expected := 0
	if infos, err := archive.ReadMeta(*dir); err == nil {
		expected = len(infos)
	}
	names := queryNames(stmts...)
	eng := query.NewEngine(nil)
	eng.SetExpected(expected)
	eng.OnAlert(func(a collect.AlertTuple) {
		group := "all"
		if a.Group != 0 {
			group = fmt.Sprintf("ec %d", a.Group)
		}
		fmt.Printf("#%-3d %12v  %-6s  %s\n", a.Seq, time.Duration(a.At), group, names[a.QueryHash])
	})
	for _, st := range stmts {
		if err := eng.Register(st); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "watching %s: %d standing queries (poll %s)\n", *dir, len(stmts), *poll)
	// Each pass snapshots the directory and feeds only the tuples past
	// the high-water mark: the archive is append-only in segment-id
	// order, so the already-fed prefix is stable across re-scans and the
	// engine sees each tuple exactly once, in archive order.
	var fed uint64
	for {
		r, err := archive.OpenReader(*dir)
		if err != nil {
			return err
		}
		var seen uint64
		var offerErr error
		_, err = r.ScanBatches(nil, archive.Query{}, archive.AllColumns, func(batch []collect.TraceTuple) bool {
			if skip := max(fed, seen) - seen; skip < uint64(len(batch)) {
				offerErr = eng.Offer(batch[skip:])
			}
			seen += uint64(len(batch))
			return offerErr == nil
		})
		if err == nil {
			err = offerErr
		}
		if err != nil {
			return err
		}
		if seen > fed {
			fed = seen
		}
		if *once {
			return nil
		}
		// The watch loop follows a real on-disk archive from outside any
		// model run, so it must pace itself on real time.
		time.Sleep(*poll) //lint:allow wallclock watch tails a live directory from outside the model; modelled time does not advance here
	}
}
