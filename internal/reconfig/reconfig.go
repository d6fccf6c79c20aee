// Package reconfig repairs event-scope trees at runtime. A Manager
// subscribes to a scope's health-guard transitions and, when a cluster
// uplink dies (the gateway host crashed or is partitioned away), plans
// and executes a repair with the scope's own primitives:
//
//   - Re-parent: the orphaned cluster's compute hosts move one by one
//     under surviving gateways, balancing fan-in and respecting the
//     policy's cap.
//   - Promote: when no surviving gateway can absorb them, one of the
//     orphaned members becomes the cluster's new gather host and its
//     siblings re-attach under it.
//
// Every repair is an explicit RepairPlan of logged steps — visible to
// viz, counted in self-metrics — not an implicit side effect. Planning
// is deterministic: the inputs are a sorted topology snapshot and the
// policy, never a clock or map-iteration order, so a chaos run under the
// virtual clock produces the same plans every time.
//
// Front-end failover (failover.go) is the complementary repair: when the
// front-end itself is lost, a replacement monitor's state is rebuilt
// deterministically from the sealed trace archive.
package reconfig

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eventspace/internal/escope"
	"eventspace/internal/hrtime"
	"eventspace/internal/metrics"
	"eventspace/internal/vclock"
)

// StepKind labels one repair action.
type StepKind int

const (
	// StepReparent moves one orphaned host under a surviving gateway.
	StepReparent StepKind = iota
	// StepPromote rebuilds a cluster's gather on one of its members.
	StepPromote
)

func (k StepKind) String() string {
	switch k {
	case StepReparent:
		return "reparent"
	case StepPromote:
		return "promote"
	}
	return fmt.Sprintf("StepKind(%d)", int(k))
}

// RepairStep is one executed (or attempted) repair action.
type RepairStep struct {
	Kind StepKind
	// Host is the host acted on: the re-parented host, or the member
	// promoted to gateway.
	Host string
	// Cluster is the broken cluster the step repairs.
	Cluster string
	// Target is the surviving cluster a re-parented host moved to
	// (empty for promotions).
	Target string
	// Err is the failure detail when the step did not apply.
	Err string
}

// RepairPlan is one trigger's complete repair: what died, what was done
// about it, and when (modelled time).
type RepairPlan struct {
	// Trigger is the guard transition that started the plan.
	Trigger escope.Transition
	// Cluster is the orphaned cluster.
	Cluster string
	Steps   []RepairStep
	// Aborted marks a plan that found no repair (no surviving gateway
	// within the fan-in cap and no live promotion candidate); Reason
	// says why.
	Aborted bool
	Reason  string
	// Started/Finished bound the plan's execution in modelled time.
	Started  hrtime.Stamp
	Finished hrtime.Stamp
}

// Failed reports whether any executed step errored.
func (p *RepairPlan) Failed() bool {
	for _, st := range p.Steps {
		if st.Err != "" {
			return true
		}
	}
	return false
}

// Policy configures the repair manager.
type Policy struct {
	// MaxFanIn caps how many members a surviving cluster's gather may
	// hold after absorbing orphans; when re-parenting every orphan would
	// exceed it, the plan promotes instead. 0 means unlimited.
	MaxFanIn int
	// Metrics, when set, wires the manager into self-metrics: a
	// KindReconfig op whose histogram is the repair-latency distribution,
	// plus the manager's reparent/promote/abort counts. nil disables.
	Metrics *metrics.Registry
	// OnPlan, when set, observes every finished plan (after execution,
	// in the repair goroutine). Use it for logging; keep it fast.
	OnPlan func(RepairPlan)
}

// Manager drives runtime repairs for one scope.
type Manager struct {
	scope *escope.Scope
	pol   Policy

	queue *vclock.Queue[escope.Transition]
	done  vclock.Event // fired when the repair goroutine exits

	mu    sync.Mutex
	plans []RepairPlan

	stopOnce sync.Once

	op *metrics.Op
	// Repairs applied and plans aborted, kept apart from the manager so
	// a registry reading them keeps only them alive.
	reparents, promotes, aborts *atomic.Uint64
}

// Attach subscribes a repair manager to the scope's guard transitions
// and starts its repair goroutine (a model goroutine: repairs execute
// under the virtual clock like everything else). The scope must have
// been built with a HealthPolicy. Stop the manager before closing the
// scope.
func Attach(scope *escope.Scope, pol Policy) (*Manager, error) {
	if scope == nil {
		return nil, fmt.Errorf("reconfig: nil scope")
	}
	if scope.Topology() == nil {
		return nil, fmt.Errorf("reconfig: scope %s has no health tracking (build it with a HealthPolicy)", scope.Name())
	}
	m := &Manager{
		scope: scope,
		pol:   pol,
		queue: vclock.NewQueue[escope.Transition](),

		reparents: new(atomic.Uint64),
		promotes:  new(atomic.Uint64),
		aborts:    new(atomic.Uint64),
	}
	if pol.Metrics != nil {
		m.op = pol.Metrics.Op(metrics.KindReconfig, "repair("+scope.Name()+")")
	}
	pol.Metrics.Count("reconfig.reparents", m.reparents)
	pol.Metrics.Count("reconfig.promotes", m.promotes)
	pol.Metrics.Count("reconfig.plan-aborts", m.aborts)
	// The hook runs inside the pulling goroutine; it must not block, so
	// it only filters and enqueues. Only an uplink death orphans a
	// cluster — leaf and direct deaths are handled by the guards' own
	// probe/recover machinery, and recoveries need no repair.
	scope.SetTransitionHook(func(tr escope.Transition) {
		if tr.To == escope.Dead && tr.Role == escope.RoleUplink {
			_ = m.queue.Push(tr)
		}
	})
	vclock.Go(m.run)
	return m, nil
}

func (m *Manager) run() {
	defer m.done.Fire(nil, nil)
	for {
		tr, ok := m.queue.Pop()
		if !ok {
			return
		}
		m.repair(tr)
	}
}

// repair plans and executes the response to one uplink death.
func (m *Manager) repair(tr escope.Transition) {
	start := hrtime.Now()
	topo := m.scope.Topology()
	var dead *escope.ClusterTopology
	for i := range topo {
		if topo[i].Name == tr.Cluster {
			dead = &topo[i]
			break
		}
	}
	// Stale triggers are silently dropped: the cluster was already
	// dissolved by an earlier re-parent plan, already promoted onto a
	// different gateway, or its uplink recovered on its own before the
	// repair goroutine got here.
	if dead == nil || dead.Gateway != tr.Target || dead.UplinkState != escope.Dead {
		return
	}

	plan := RepairPlan{Trigger: tr, Cluster: tr.Cluster, Started: start}

	// Orphans: the cluster's members, minus any member local to the dead
	// gateway host (its chain died with the host; a later restart heals
	// it through the ordinary probe path). Topology() sorts members.
	var orphans []escope.MemberHealth
	for _, mh := range dead.Members {
		if !mh.Local {
			orphans = append(orphans, mh)
		}
	}

	// Survivors, with their current fan-in, in name order.
	type survivor struct {
		name string
		fan  int
	}
	var survivors []survivor
	for i := range topo {
		ct := &topo[i]
		if ct.Name == tr.Cluster || ct.UplinkState == escope.Dead {
			continue
		}
		survivors = append(survivors, survivor{name: ct.Name, fan: len(ct.Members)})
	}

	// First choice: re-parent every orphan onto the least-loaded
	// surviving gateway (ties break toward the lexicographically first
	// cluster). All-or-nothing against the fan-in cap — absorbing half a
	// cluster and promoting the rest would split it permanently.
	assign := make([]string, len(orphans))
	canReparent := len(survivors) > 0 && len(orphans) > 0
	if canReparent {
		for i := range orphans {
			best := -1
			for j := range survivors {
				if best < 0 || survivors[j].fan < survivors[best].fan {
					best = j
				}
			}
			if m.pol.MaxFanIn > 0 && survivors[best].fan+1 > m.pol.MaxFanIn {
				canReparent = false
				break
			}
			survivors[best].fan++
			assign[i] = survivors[best].name
		}
	}

	switch {
	case canReparent:
		for i, mh := range orphans {
			step := RepairStep{Kind: StepReparent, Host: mh.Host, Cluster: tr.Cluster, Target: assign[i]}
			if err := m.scope.ReparentHost(mh.Host, assign[i]); err != nil {
				step.Err = err.Error()
			} else {
				m.reparents.Add(1)
			}
			plan.Steps = append(plan.Steps, step)
		}
	default:
		// Promote the first member that was healthy before the crash.
		cand := ""
		for _, mh := range orphans {
			if mh.State != escope.Dead {
				cand = mh.Host
				break
			}
		}
		if cand == "" {
			plan.Aborted = true
			if len(orphans) == 0 {
				plan.Reason = "no re-parentable members"
			} else {
				plan.Reason = "no surviving gateway within fan-in cap and no live promotion candidate"
			}
			m.aborts.Add(1)
			break
		}
		step := RepairStep{Kind: StepPromote, Host: cand, Cluster: tr.Cluster}
		if err := m.scope.PromoteGateway(tr.Cluster, cand); err != nil {
			step.Err = err.Error()
		} else {
			m.promotes.Add(1)
		}
		plan.Steps = append(plan.Steps, step)
	}

	plan.Finished = hrtime.Now()
	var opErr error
	if plan.Aborted {
		opErr = fmt.Errorf("reconfig: %s", plan.Reason)
	}
	if m.op != nil {
		m.op.Record(plan.Finished-plan.Started, 0, opErr)
	}
	m.mu.Lock()
	m.plans = append(m.plans, plan)
	m.mu.Unlock()
	if m.pol.OnPlan != nil {
		m.pol.OnPlan(plan)
	}
}

// Plans returns a copy of every plan executed so far, in order.
func (m *Manager) Plans() []RepairPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RepairPlan(nil), m.plans...)
}

// Stop detaches the manager from the scope and waits for the repair
// goroutine to drain. Idempotent.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		m.scope.SetTransitionHook(nil)
		m.queue.Close()
	})
	_, _ = m.done.Wait()
}
