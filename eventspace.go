// Package eventspace is a Go reproduction of the EventSpace system from
// "Low Overhead High Performance Runtime Monitoring of Collective
// Communication" (Bongo, Anshus, Bjørndalen — ICPP 2005).
//
// EventSpace monitors collective communication from inside the
// communication system: event collectors record 28-byte trace tuples into
// bounded in-memory buffers on every host, and monitors pull, reduce and
// gather those tuples through configurable event scopes — collective
// communication structures of their own — analysing them on the fly with
// analysis threads coscheduled with the application.
//
// The package is a façade over the implementation packages:
//
//   - internal/pastset — the PastSet structured shared memory (bounded
//     tuple buffers with per-reader cursors);
//   - internal/paths — the PATHS communication system (wrappers, paths,
//     allreduce spanning trees, remote stubs, gather/scatter, all-to-all);
//   - internal/vnet — the virtual cluster testbed (hosts with CPU slots,
//     links, gateways, a real-TCP transport for the wire format);
//   - internal/wantrace — the Longcut WAN emulator's delay model;
//   - internal/vclock — the discrete-event virtual clock that runs
//     experiments fast, in modelled time (ties at one virtual instant
//     resolve in either order; see RunVirtual);
//   - internal/collect, internal/escope, internal/analysis,
//     internal/cosched, internal/monitor — EventSpace itself;
//   - internal/cluster — the paper's testbed and tree generators;
//   - internal/bench — the experiment harness reproducing every table
//     and figure of the evaluation.
//
// # Quick start
//
//	err := eventspace.RunVirtual(func() error {
//	    sys, _ := eventspace.New(eventspace.SingleTin(8), eventspace.CoschedAfterUnblock)
//	    defer sys.Close()
//	    tree, _ := sys.BuildTree(eventspace.TreeSpec{
//	        Name: "T", Fanout: 8, ThreadsPerHost: 1, Instrument: true,
//	    })
//	    lb, _ := sys.AttachLoadBalance(tree, eventspace.Distributed, eventspace.DefaultMonitorConfig())
//	    sys.RunWorkload(eventspace.Workload{Trees: []*eventspace.Tree{tree}, Iterations: 1000})
//	    fmt.Println(lb.Weighted().Counts(tree.Nodes[0].Name))
//	    return nil
//	})
//
// A run can also be recorded: System.AttachArchive archives a tree's
// trace tuples (given alert statements, through a continuous-query
// engine), AttachArchiveCheckpointed adds the recovery chain, and after
// a front-end loss FailoverLoadBalance or RecoverLoadBalance rebuilds
// the monitor from the archive and ResumeArchive continues the
// recording from the handoff they return.
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the paper-versus-measured results.
package eventspace

import (
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/collect"
	"eventspace/internal/core"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
	"eventspace/internal/query"
	"eventspace/internal/reconfig"
	"eventspace/internal/vnet"
)

// Core façade types.
type (
	// System is one EventSpace instance over a virtual testbed.
	System = core.System
	// Workload drives application threads over one or more trees: one
	// allreduce per iteration, alternating over the trees.
	Workload = core.Workload

	// TestbedSpec describes the virtual testbed (clusters, sites, WAN).
	TestbedSpec = cluster.TestbedSpec
	// ClusterSpec places hosts of one class at a site.
	ClusterSpec = cluster.ClusterSpec
	// TreeSpec describes a collective spanning tree.
	TreeSpec = cluster.TreeSpec
	// Tree is a built spanning tree with its instrumentation.
	Tree = cluster.Tree
	// Testbed is the built virtual testbed.
	Testbed = cluster.Testbed

	// MonitorConfig tunes a monitor (helpers, pacing, coscheduling).
	MonitorConfig = monitor.Config
	// LoadBalance is the load-balance monitor (figure 3).
	LoadBalance = monitor.LoadBalance
	// Statsm is the statistics monitor (figure 4).
	Statsm = monitor.Statsm
	// WeightedTree is the front-end last-arrival state.
	WeightedTree = monitor.WeightedTree
	// AnalysisTree is the front-end statistics state.
	AnalysisTree = monitor.AnalysisTree
	// LoadBalanceMode selects single-scope or distributed analysis.
	LoadBalanceMode = monitor.LoadBalanceMode

	// Strategy selects the analysis-thread coscheduling strategy.
	Strategy = cosched.Strategy
)

// Load-balance monitor modes.
const (
	SingleScope = monitor.SingleScope
	Distributed = monitor.Distributed
)

// Coscheduling strategies (section 4.1).
const (
	CoschedNone         = cosched.None
	CoschedAfterSend    = cosched.AfterSend    // strategy 1
	CoschedAfterUnblock = cosched.AfterUnblock // strategy 2
)

// Fault injection and robustness (see DESIGN.md "Fault model").
type (
	// FaultPlan is a deterministic, seeded schedule of failures to
	// inject into the virtual network (Testbed.Net.InjectFaults).
	FaultPlan = vnet.FaultPlan
	// FaultEvent is one scheduled failure (crash, restart, partition,
	// heal, reset) applied at a virtual-time offset.
	FaultEvent = vnet.FaultEvent
	// FaultRule injects per-call drops and latency spikes, scoped by
	// host or cluster name.
	FaultRule = vnet.FaultRule
	// HealthPolicy enables per-child health tracking in monitor event
	// scopes (MonitorConfig.Health).
	HealthPolicy = escope.HealthPolicy
	// RetryPolicy makes remote stubs retry transport faults with capped
	// exponential backoff (MonitorConfig.Retry).
	RetryPolicy = paths.RetryPolicy
	// Coverage reports which source hosts a monitor currently hears from.
	Coverage = escope.Coverage
	// ChildHealth is a snapshot of one guarded gather child.
	ChildHealth = escope.ChildHealth
	// GuardRole says where in the scope tree a guarded link sits.
	GuardRole = escope.GuardRole
	// Transition is one guard state change, as delivered to transition
	// hooks and repair managers.
	Transition = escope.Transition

	// BreakerPolicy enables per-child straggler circuit breakers in
	// monitor event scopes (MonitorConfig.Breaker, requires Health):
	// outside strict mode every gather round's wait on a child is
	// bounded, and slow children are skipped and served stale within the
	// policy's staleness bound.
	BreakerPolicy = escope.BreakerPolicy
	// BreakerHealth is a snapshot of one child's straggler breaker.
	BreakerHealth = escope.BreakerHealth
	// ScopeMode is a rung of a scope's degradation ladder (strict,
	// bounded-staleness, summary-only).
	ScopeMode = escope.Mode
	// ModeChange is one degradation-ladder transition, as logged by the
	// scope and persisted to the archive as a control tuple.
	ModeChange = escope.ModeChange
	// IngestStats is a monitor ingest queue's shed/summarize accounting.
	IngestStats = collect.IngestStats
	// ModeReplay reconstructs a scope's mode history from an archive.
	ModeReplay = monitor.ModeReplay
)

// Degradation-ladder rungs (LoadBalance.SetScopeMode). Strict is the paper's behaviour: every
// gather round waits for every child. Bounded-staleness cuts stragglers
// at the breaker deadline and coasts on stale data within the bound.
// Summary-only additionally sheds gathered payloads at the ingest queue,
// keeping only aggregate counts.
const (
	ModeStrict  = escope.ModeStrict
	ModeBounded = escope.ModeBounded
	ModeSummary = escope.ModeSummary
)

// Runtime tree repair (see DESIGN.md "Runtime reconfiguration"): a
// ReconfigManager attached to a load-balance monitor re-parents orphaned
// hosts or promotes a replacement gateway when a cluster gateway dies,
// and FailoverLoadBalance rebuilds a lost front-end's state from its
// sealed trace archive.
type (
	// ReconfigPolicy tunes the repair manager (fan-in cap, metrics,
	// plan observer).
	ReconfigPolicy = reconfig.Policy
	// ReconfigManager plans and executes runtime tree repairs
	// (System.AttachReconfig).
	ReconfigManager = reconfig.Manager
	// RepairPlan is one trigger's complete repair, with timing.
	RepairPlan = reconfig.RepairPlan
	// RepairStep is one action inside a repair plan.
	RepairStep = reconfig.RepairStep
	// RepairStepKind labels a repair step (reparent or promote).
	RepairStepKind = reconfig.StepKind
	// FailoverState is the archive-rebuilt front-end state handoff
	// (System.FailoverLoadBalance / System.FailoverStatsm).
	FailoverState = reconfig.FailoverState
	// LoadBalanceResume seeds a replacement load-balance monitor after a
	// front-end failover (ArchiveReplay.Resume).
	LoadBalanceResume = monitor.LoadBalanceResume
)

// Guard roles (where in the scope tree a guarded link sits).
const (
	RoleLeaf   = escope.RoleLeaf
	RoleUplink = escope.RoleUplink
	RoleDirect = escope.RoleDirect
)

// Repair step kinds.
const (
	StepReparent = reconfig.StepReparent
	StepPromote  = reconfig.StepPromote
)

// Guard health states.
const (
	GuardAlive   = escope.Alive
	GuardSuspect = escope.Suspect
	GuardDead    = escope.Dead
)

// Self-metrics ("monitor the monitor", see DESIGN.md "Self-metrics").
type (
	// MetricsRegistry collects per-wrapper cost accounting for the
	// monitoring stack itself. Install it with System.UseMetrics or via
	// TreeSpec.Metrics / MonitorConfig.Metrics; nil disables.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of every site and counter.
	MetricsSnapshot = metrics.Snapshot
	// MetricsOpStats is one instrumented operation site's snapshot.
	MetricsOpStats = metrics.OpStats
)

// NewMetricsRegistry returns an empty self-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// Trace archive: the persistent flight recorder (see DESIGN.md "Trace
// archive"). Record a run with System.AttachArchive, query it back with
// OpenArchive, and replay it through the monitors' joins with
// ReplayArchive — or from the command line with cmd/esquery.
type (
	// ArchiveOptions configures an archive writer (directory, segment
	// size cap, retention cap, block size, self-metrics).
	ArchiveOptions = archive.Options
	// ArchiveWriter appends trace tuples to a segmented archive.
	ArchiveWriter = archive.Writer
	// ArchiveReader queries an archive directory.
	ArchiveReader = archive.Reader
	// ArchiveQuery selects tuples (ECID set, op kinds, stamp range).
	ArchiveQuery = archive.Query
	// ArchiveRecorder records a tree's trace tuples into an archive
	// alongside the live monitors (System.AttachArchive).
	ArchiveRecorder = core.ArchiveRecorder
	// CollectorInfo is one collector's identity in the archive's
	// metadata sidecar.
	CollectorInfo = archive.CollectorInfo
	// ArchiveReplay re-runs the load-balance reduction and statsm's
	// wrapper statistics offline, from one feed.
	ArchiveReplay = monitor.Replay
)

// Checkpointed crash recovery (see DESIGN.md "Checkpointed crash
// recovery"): a recorder attached with System.AttachArchiveCheckpointed
// periodically snapshots the front-end state its archive implies into a
// sidecar chain of ckpt-*.eckpt files. After a crash,
// System.RecoverLoadBalance restores from the newest valid checkpoint
// and replays only the archive suffix behind it — falling back rung by
// rung to full replay when the chain is damaged — and
// System.ResumeArchive continues recording (and alerting, mid-streak)
// from the recovered state.
type (
	// ArchiveCursor is a durable position in an archive's tuple stream
	// (ArchiveWriter.Position); checkpoints anchor their replay suffix
	// to one.
	ArchiveCursor = archive.Cursor
	// CheckpointConfig tunes a recorder's checkpointer (cadence in
	// tuples, chain length, metrics).
	CheckpointConfig = checkpoint.Config
	// Checkpointer rides a recorder's sink chain, snapshotting monitor
	// and query-engine state on cadence (ArchiveRecorder.Checkpointer).
	Checkpointer = checkpoint.Checkpointer
	// CrashPoints is a seeded crash-injection plan for an archive
	// writer and its checkpointer (ArchiveOptions.CrashPoints) —
	// test-only, for proving recovery invariants.
	CrashPoints = archive.CrashPoints
	// CrashSpec arms one injection site within a plan.
	CrashSpec = archive.CrashSpec
	// CrashSite names an injection site.
	CrashSite = archive.CrashSite
)

// Crash-injection sites (CrashSpec.Site).
const (
	CrashBlockFlush = archive.CrashBlockFlush
	CrashSeal       = archive.CrashSeal
	CrashRotate     = archive.CrashRotate
	CrashCheckpoint = archive.CrashCheckpoint
)

// ErrInjectedCrash is the sticky error a writer or checkpointer reports
// after its armed crash point fired.
var ErrInjectedCrash = archive.ErrInjectedCrash

// OpenArchive opens an archive directory for querying.
func OpenArchive(dir string) (*ArchiveReader, error) { return archive.OpenReader(dir) }

// ReadArchiveMeta loads an archive's collector-metadata sidecar.
func ReadArchiveMeta(dir string) ([]CollectorInfo, error) { return archive.ReadMeta(dir) }

// ReplayArchive re-runs the load-balance monitor's last-arrival
// reduction and statsm's wrapper-statistics computation over archived
// tuples matching q (window < 1 uses the analysis default median window).
func ReplayArchive(r *ArchiveReader, infos []CollectorInfo, q ArchiveQuery, window int) (*ArchiveReplay, error) {
	rep, _, err := archive.ReplayStats(r, infos, q, window)
	return rep, err
}

// ReplayModes reconstructs the named scope's degradation-ladder history
// from archived mode-transition control tuples matching q.
func ReplayModes(r *ArchiveReader, scope string, q ArchiveQuery) (*ModeReplay, error) {
	rep, _, err := archive.ReplayModes(r, scope, q)
	return rep, err
}

// Continuous queries (esql, see DESIGN.md "Query language"): a small
// typed query language over trace tuples. One-shot selects run against
// an archive with predicate pushdown into the header-index and columnar
// block-skip paths (cmd/esquery "query"); standing alert statements run
// continuously on the live gather stream (System.AttachArchive with
// alert statements), firing alerts that are archived as
// OpAlert control tuples and regenerate byte-identically on replay.
type (
	// QueryStmt is a parsed, type-checked esql statement. Its String is
	// the canonical spelling; its Hash identifies it in alert tuples.
	QueryStmt = query.Stmt
	// QueryEngine evaluates standing alert statements over a tuple
	// stream (live or replayed).
	QueryEngine = query.Engine
	// QueryResult is an aggregate select's result table.
	QueryResult = query.Result
	// QueryRow is one result row (group, window bucket, values).
	QueryRow = query.Row
	// AlertTuple is one fired continuous-query alert, as encoded into
	// an OpAlert control tuple.
	AlertTuple = collect.AlertTuple
)

// ParseQuery parses and type-checks one esql statement.
func ParseQuery(src string) (*QueryStmt, error) { return query.Parse(src) }

// ReplayAlerts extracts the archived alert control tuples matching q,
// in firing order.
func ReplayAlerts(r *ArchiveReader, q ArchiveQuery) ([]AlertTuple, error) {
	out, _, err := archive.ReplayAlerts(r, q)
	return out, err
}

// RegenerateAlerts re-runs standing alert statements over an archive's
// data tuples, regenerating the alert stream a live engine with the
// same statements produced. expected is the coverage() roster size
// (len of ReadArchiveMeta's result for the recorded tree).
func RegenerateAlerts(r *ArchiveReader, stmts []*QueryStmt, expected int) ([]AlertTuple, error) {
	return query.Replay(r, stmts, expected)
}

// Fault event kinds.
const (
	FaultCrash     = vnet.FaultCrash
	FaultRestart   = vnet.FaultRestart
	FaultPartition = vnet.FaultPartition
	FaultHeal      = vnet.FaultHeal
	FaultReset     = vnet.FaultReset
	FaultSlow      = vnet.FaultSlow
	FaultFast      = vnet.FaultFast
)

// New builds a System over the given testbed specification.
func New(spec TestbedSpec, strategy Strategy) (*System, error) {
	return core.New(spec, strategy)
}

// RunVirtual executes fn under the discrete-event virtual clock: modelled
// delays cost no real time and results depend only on the model (ties at
// one virtual instant resolve in either order; EXPERIMENTS.md gives the
// measured run-to-run spread).
func RunVirtual(fn func() error) error { return core.RunVirtual(fn) }

// SleepOutside waits d of model time from the driver goroutine (the
// function passed to RunVirtual), e.g. between polls of monitor state.
// The driver is not a model participant, so it must not use a model
// sleep; this parks it on an outside timer that the clock honours
// without counting the driver as a runnable model goroutine.
func SleepOutside(d time.Duration) { hrtime.SleepOutside(d) }

// DefaultMonitorConfig returns the configuration the paper converged on:
// parallel gathering, coscheduling strategy 2, TCP statistics computed at
// the destination host.
func DefaultMonitorConfig() MonitorConfig { return monitor.DefaultConfig() }

// Standard topologies from the paper's evaluation (section 5).
var (
	// SingleTin is a one-cluster testbed of n Tin hosts.
	SingleTin = cluster.SingleTin
	// LANMulti joins Tin and Iron clusters over 100 Mbit Ethernet.
	LANMulti = cluster.LANMulti
	// LANMultiFour adds the Copper and Lead clusters.
	LANMultiFour = cluster.LANMultiFour
	// WANMulti splits Tin and Iron into six sub-clusters across the
	// Longcut trace sites.
	WANMulti = cluster.WANMulti
)
