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
//     allreduce spanning trees, remote stubs, gather, all-to-all);
//   - internal/vnet — the virtual cluster testbed (hosts with CPU slots,
//     links, gateways, a real-TCP transport for the wire format);
//   - internal/wantrace — the Longcut WAN emulator's delay model;
//   - internal/vclock — the discrete-event virtual clock that runs
//     experiments fast, in modelled time, one model goroutine at a time
//     (ties at one virtual instant run in the order its seed gives; see
//     RunVirtual);
//   - internal/collect, internal/escope, internal/analysis,
//     internal/cosched, internal/monitor — EventSpace itself;
//   - internal/cluster — the paper's testbed and tree generators;
//   - internal/bench — the experiment harness reproducing every table
//     and figure of the evaluation.
//
// It exports what its programs use: building a System over a testbed,
// attaching monitors to an instrumented tree, running a workload, and
// the fault and degradation knobs a hardened monitor takes. The package
// Examples are those programs — start with Example_quickstart; the
// others hunt a load imbalance, climb statsm's coscheduling ladder,
// monitor a WAN multi-cluster, and ride out crashes and a straggler.
//
// A run can also be recorded: System.AttachArchiveCheckpointed archives
// a tree's trace tuples (given alert statements, through a
// continuous-query engine) next to a checkpoint chain, and after a
// front-end loss System.Recover rebuilds the front end from the archive
// and restarts what a PipelineSpec names: the monitors and a recording
// that checkpoints in turn (Example_recover). cmd/esquery queries and
// replays an archive; cmd/esviz and cmd/esrun render the monitoring
// views, and EXPERIMENTS.md holds the paper-versus-measured results.
package eventspace

import (
	"time"

	"eventspace/internal/archive"
	"eventspace/internal/checkpoint"
	"eventspace/internal/cluster"
	"eventspace/internal/core"
	"eventspace/internal/cosched"
	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/monitor"
	"eventspace/internal/paths"
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
	// TreeSpec describes a collective spanning tree.
	TreeSpec = cluster.TreeSpec
	// Tree is a built spanning tree with its instrumentation.
	Tree = cluster.Tree

	// MonitorConfig tunes a monitor (helpers, pacing, coscheduling).
	MonitorConfig = monitor.Config
	// Strategy selects the analysis-thread coscheduling strategy.
	Strategy = cosched.Strategy
)

// Load-balance monitor modes (System.AttachLoadBalance).
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
	// FaultEvent is one scheduled failure applied at a virtual-time
	// offset.
	FaultEvent = vnet.FaultEvent
	// HealthPolicy enables per-child health tracking in monitor event
	// scopes (MonitorConfig.Health).
	HealthPolicy = escope.HealthPolicy
	// RetryPolicy makes remote stubs retry transport faults with capped
	// exponential backoff (MonitorConfig.Retry).
	RetryPolicy = paths.RetryPolicy
	// BreakerPolicy enables per-child straggler circuit breakers in
	// monitor event scopes (MonitorConfig.Breaker, requires Health):
	// outside strict mode every gather round's wait on a child is
	// bounded, and slow children are skipped and served stale within the
	// policy's staleness bound.
	BreakerPolicy = escope.BreakerPolicy
	// Coverage reports which source hosts a monitor currently hears from.
	Coverage = escope.Coverage
	// ReconfigPolicy tunes the runtime tree-repair manager
	// (System.AttachReconfig; see DESIGN.md "Runtime reconfiguration").
	ReconfigPolicy = reconfig.Policy
)

// Fault event kinds.
const (
	FaultCrash   = vnet.FaultCrash
	FaultRestart = vnet.FaultRestart
	FaultSlow    = vnet.FaultSlow
)

// Degradation-ladder rungs (LoadBalance.SetScopeMode). Strict is the
// paper's behaviour: every gather round waits for every child.
// Bounded-staleness cuts stragglers at the breaker deadline and coasts on
// stale data within the bound. Summary-only additionally skips the
// weighted-tree fold and only counts the gathered batches.
const (
	ModeStrict  = escope.ModeStrict
	ModeBounded = escope.ModeBounded
	ModeSummary = escope.ModeSummary
)

// Recording (see DESIGN.md "Trace archive" and "Checkpointed crash
// recovery").
type (
	// ArchiveOptions configures an archive writer (directory, segment
	// size cap, retention cap, block size, self-metrics).
	ArchiveOptions = archive.Options
	// CheckpointConfig tunes a recorder's checkpointer (cadence in
	// tuples, metrics).
	CheckpointConfig = checkpoint.Config
	// PipelineSpec names what System.Recover starts over a front end it
	// rebuilt from an archive: the monitors, a resumed recorder and its
	// standing alerts.
	PipelineSpec = core.PipelineSpec
	// ArchiveRecorder records a tree's trace tuples into an archive
	// and a checkpoint chain alongside the live monitors
	// (System.AttachArchiveCheckpointed).
	ArchiveRecorder = core.ArchiveRecorder
	// MetricsRegistry collects per-wrapper cost accounting for the
	// monitoring stack itself (see DESIGN.md "Self-metrics"). Install it
	// with System.UseMetrics or via TreeSpec.Metrics /
	// MonitorConfig.Metrics; nil disables.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry returns an empty self-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// New builds a System over the given testbed specification.
func New(spec TestbedSpec, strategy Strategy) (*System, error) {
	return core.New(spec, strategy)
}

// RunVirtual executes fn under the discrete-event virtual clock: modelled
// delays cost no real time and results depend only on the model. Model
// goroutines run one at a time, and ties at one virtual instant run in the
// order they became ready, so a model runs the same way on every run; what
// fn does between its own waits runs beside the model, so an fn that
// starts monitors and then a workload reproduces to the tie only when
// that gap is idle (EXPERIMENTS.md gives the measured run-to-run spread).
// When fn succeeds but the model does not wind down — goroutines left
// parked with nothing to wake them, or still running after ten seconds —
// RunVirtual returns the clock's stall report, which names each one.
func RunVirtual(fn func() error) error { return core.RunVirtual(fn) }

// SleepOutside waits d of model time from the driver goroutine (the
// function passed to RunVirtual), e.g. between polls of monitor state.
// The driver is not a model participant, so it must not use a model
// sleep; this waits on a timer the clock runs first at now+d, and the
// driver moves at that instant before the model goes on.
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
	// WANMulti splits Tin and Iron into six sub-clusters across the
	// Longcut trace sites.
	WANMulti = cluster.WANMulti
)
