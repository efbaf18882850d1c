package grid

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"uncheatgrid/internal/transport"
)

// SimConfig describes a population run: a supervisor distributing tasks
// over a mixed honest/cheating participant pool, verified with one scheme.
type SimConfig struct {
	// Spec selects the verification scheme.
	Spec SchemeSpec
	// Workload names the registered function f; Seed instantiates it.
	Workload string
	Seed     uint64
	// TaskSize is |D| per task; Tasks is how many windows to assign.
	TaskSize int
	Tasks    int
	// Honest, SemiHonest, and Malicious size the participant pool.
	Honest     int
	SemiHonest int
	Malicious  int
	// HonestyRatio is r for the semi-honest participants.
	HonestyRatio float64
	// CorruptProb is the report-corruption probability for malicious
	// participants.
	CorruptProb float64
	// Replicas is the double-check group size (default 2). With 2
	// replicas a disagreement cannot be attributed, so both sides are
	// rejected; 3 or more lets the majority convict the dissenter.
	Replicas int
	// Blacklist removes a participant from scheduling after its first
	// rejected task — the supervisor's natural response to detection.
	Blacklist bool
	// CrossCheckReports enables the sampled-index screener cross-check.
	CrossCheckReports bool
	// Workers sets how many participants are verified concurrently.
	// Values <= 1 run the legacy serial scheduler; larger values drive a
	// SupervisorPool. The report is identical for equal seeds whatever the
	// worker count — task randomness is derived per task ID, and the
	// pooled scheduler preserves the serial round-robin assignment
	// (including blacklisting, which both schedulers apply before any
	// participant can be picked twice). The double-check scheme runs
	// serially under Workers (its barrier spans connections); use
	// PipelineWindow to pipeline it.
	Workers int
	// PipelineWindow, when > 0, replaces the per-task dialogue with
	// pipelined multi-task sessions: every participant connection carries up
	// to PipelineWindow concurrent task exchanges in batched frames, and
	// connections claim tasks from a shared queue (work stealing). Unlike
	// Workers, the task→participant pairing then depends on scheduling;
	// each (task, participant) verdict is still deterministic, and the
	// report is recorded in task order. Blacklisting retires a participant
	// from claiming after its first rejection, but tasks already in flight
	// on it still finish. PipelineWindow takes precedence over Workers.
	//
	// The double-check scheme pipelines too: replica groups are pre-placed
	// round-robin exactly like the serial scheduler picks them (so verdicts
	// are byte-identical to the dialogue run for equal seeds), each
	// replica's upload overlaps other tasks inside its connection's window,
	// and only the comparison waits at a cross-connection rendezvous. Since
	// groups are placed up front, Blacklist cannot recall a rejected
	// participant's pre-placed replicas — replication itself is the defense
	// there — so replicated pipelined runs with Blacklist diverge from the
	// serial scheduler's pairing.
	PipelineWindow int
	// Broker routes every supervisor↔participant link through one
	// GRACE-style BrokerHub (Section 4): each participant registers a
	// hub link under its identity, each supervisor connection carries a
	// hello naming its worker, and the hub binds the pair and relays —
	// re-coalescing batch frames at the relay hop. Faults (DropProb /
	// GarbleProb) then apply to the supervisor↔hub leg, the WAN hop of the
	// GRACE deployment: a quarantined route is recovered by redialing
	// through the hub, whose identity routing re-binds the resumed
	// exchange to the same participant, so verdicts remain byte-identical
	// to a clean direct run.
	Broker bool
	// Routes, when > 0, sets how many concurrent supervisor routes a
	// brokered pipelined run opens — at least one per participant, with any
	// surplus distributed round-robin as extra routes to the same
	// participants, all multiplexed over the supervisor's physical hub
	// link(s) and fed from the shared work-stealing queue. 0 keeps the
	// default of exactly one route per participant. Requires Broker and
	// PipelineWindow > 0; values below the participant count are rejected.
	Routes int
	// DropProb and GarbleProb inject transport faults on every connection
	// (send side, both directions, seeded deterministically from Seed):
	// frames silently vanish or have one bit flipped in transit. Faults
	// require PipelineWindow > 0 — only pipelined sessions carry the
	// integrity checks, receive watchdog, and reconnect-and-resume machinery
	// that recover from them. Each (task, participant) verdict is unaffected
	// by injected faults: resumed exchanges replay their protocol position
	// and restarted ones re-derive their randomness from the task seed.
	DropProb, GarbleProb float64
	// ReconnectLimit bounds replacement connections per participant under
	// fault injection; 0 selects the default (8).
	ReconnectLimit int
	// FaultRecvTimeout is the session receive watchdog that turns silently
	// dropped frames into reconnects; 0 selects the default (2s). It must
	// exceed the worst-case per-task participant compute time.
	FaultRecvTimeout time.Duration
	// Stream switches the run to long-horizon streaming mode: tasks are
	// drawn lazily from a source (memory stays O(window) however large
	// Tasks is), placement is pinned round-robin for determinism, and —
	// with Spec.WindowTasks > 0 — every participant carries hash-chained
	// rolling window commitments verified per link. Requires
	// PipelineWindow > 0; incompatible with fault injection, Routes,
	// Blacklist, and the double-check scheme. Broker is supported.
	Stream bool
	// CheckpointEvery, in stream mode, splits the run into segments of
	// that many tasks; each segment ends with a checkpoint barrier where
	// every participant persists its durable state under CheckpointDir and
	// the supervisor writes its own progress file. 0 disables periodic
	// checkpoints (a single segment).
	CheckpointEvery int
	// CheckpointDir roots the checkpoint files of a stream run. A run
	// started over a directory holding a matching supervisor checkpoint
	// resumes from it instead of starting over.
	CheckpointDir string
	// KillAfter, in stream mode, injects a crash: after that many settled
	// tasks the whole run — supervisor pool, sessions, participants — is
	// torn down mid-segment and restarted from the last durable
	// checkpoint. The final report must be byte-identical to an
	// uninterrupted run's (the checkpoint/restore acceptance criterion).
	// Requires CheckpointEvery > 0 and CheckpointDir.
	KillAfter int
	// KillTarget selects the KillAfter crash's victim.
	// KillTargetSupervisor (or empty) is the classic drill: the whole
	// attempt dies and restarts from the checkpoint files.
	// KillTargetParticipant crashes the participant pool mid-segment while
	// the supervisor survives: participants are rebuilt from their durable
	// checkpoints via RestoreCheckpoint, the supervisor rolls its window
	// ledgers back to the matching barrier from in-memory Snapshot copies,
	// and the aborted segment re-runs. Verdicts and window accounting must
	// match an uninterrupted run's either way; only the supervisor's eval
	// counter differs under a participant crash, because the surviving
	// supervisor honestly pays for re-verifying the aborted segment.
	// Requires KillAfter.
	KillTarget string
}

// KillTarget values for SimConfig: which side the kill drill takes down.
const (
	KillTargetSupervisor  = "supervisor"
	KillTargetParticipant = "participant"
)

// faulty reports whether fault injection is enabled.
func (c SimConfig) faulty() bool { return c.DropProb > 0 || c.GarbleProb > 0 }

func (c SimConfig) participants() int { return c.Honest + c.SemiHonest + c.Malicious }

func (c SimConfig) validate() error {
	if err := c.Spec.validate(); err != nil {
		return err
	}
	if c.Workload == "" {
		return fmt.Errorf("%w: no workload", ErrBadConfig)
	}
	if c.TaskSize < 1 || c.Tasks < 1 {
		return fmt.Errorf("%w: need TaskSize >= 1 and Tasks >= 1", ErrBadConfig)
	}
	if c.participants() < 1 {
		return fmt.Errorf("%w: empty participant pool", ErrBadConfig)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative worker count %d", ErrBadConfig, c.Workers)
	}
	if c.PipelineWindow < 0 {
		return fmt.Errorf("%w: negative pipeline window %d", ErrBadConfig, c.PipelineWindow)
	}
	if c.DropProb < 0 || c.DropProb >= 1 || c.GarbleProb < 0 || c.GarbleProb >= 1 {
		return fmt.Errorf("%w: fault probabilities must lie in [0, 1)", ErrBadConfig)
	}
	if c.faulty() && c.PipelineWindow < 1 {
		return fmt.Errorf("%w: fault injection requires pipelined sessions (PipelineWindow > 0)", ErrBadConfig)
	}
	if c.Routes < 0 {
		return fmt.Errorf("%w: negative route count %d", ErrBadConfig, c.Routes)
	}
	if c.Routes > 0 {
		if !c.Broker || c.PipelineWindow < 1 {
			return fmt.Errorf("%w: Routes requires Broker and PipelineWindow > 0", ErrBadConfig)
		}
		if c.Routes < c.participants() {
			return fmt.Errorf("%w: Routes = %d below the %d-participant pool (need one route each)",
				ErrBadConfig, c.Routes, c.participants())
		}
	}
	if c.ReconnectLimit < 0 {
		return fmt.Errorf("%w: negative reconnect limit %d", ErrBadConfig, c.ReconnectLimit)
	}
	if c.FaultRecvTimeout < 0 {
		return fmt.Errorf("%w: negative fault receive timeout %v", ErrBadConfig, c.FaultRecvTimeout)
	}
	if c.Spec.Kind == SchemeDoubleCheck {
		if c.Replicas != 0 && c.Replicas < 2 {
			return fmt.Errorf("%w: double-check needs >= 2 replicas", ErrBadConfig)
		}
		if c.participants() < c.replicaCount() {
			return fmt.Errorf("%w: double-check needs >= %d participants", ErrBadConfig, c.replicaCount())
		}
	}
	if c.CheckpointEvery < 0 || c.KillAfter < 0 {
		return fmt.Errorf("%w: negative checkpoint interval or kill point", ErrBadConfig)
	}
	switch c.KillTarget {
	case "", KillTargetSupervisor, KillTargetParticipant:
	default:
		return fmt.Errorf("%w: unknown KillTarget %q", ErrBadConfig, c.KillTarget)
	}
	if c.KillTarget != "" && c.KillAfter == 0 {
		return fmt.Errorf("%w: KillTarget requires KillAfter", ErrBadConfig)
	}
	if c.Stream {
		if c.PipelineWindow < 1 {
			return fmt.Errorf("%w: Stream requires pipelined sessions (PipelineWindow > 0)", ErrBadConfig)
		}
		if c.Spec.Kind == SchemeDoubleCheck {
			return fmt.Errorf("%w: Stream does not support the double-check scheme", ErrBadConfig)
		}
		if c.faulty() {
			return fmt.Errorf("%w: Stream is incompatible with fault injection", ErrBadConfig)
		}
		if c.Routes > 0 {
			return fmt.Errorf("%w: Stream is incompatible with extra Routes", ErrBadConfig)
		}
		if c.Blacklist {
			return fmt.Errorf("%w: Stream is incompatible with Blacklist", ErrBadConfig)
		}
		if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
			return fmt.Errorf("%w: CheckpointEvery requires CheckpointDir", ErrBadConfig)
		}
		if c.KillAfter > 0 && (c.CheckpointEvery < 1 || c.CheckpointDir == "") {
			return fmt.Errorf("%w: KillAfter requires CheckpointEvery and CheckpointDir", ErrBadConfig)
		}
	} else {
		if c.Spec.WindowTasks > 0 {
			return fmt.Errorf("%w: window commitments (Spec.WindowTasks) require Stream", ErrBadConfig)
		}
		if c.CheckpointEvery != 0 || c.CheckpointDir != "" || c.KillAfter != 0 {
			return fmt.Errorf("%w: checkpoint options require Stream", ErrBadConfig)
		}
	}
	return nil
}

// replicaCount returns the effective double-check group size.
func (c SimConfig) replicaCount() int {
	if c.Replicas < 2 {
		return 2
	}
	return c.Replicas
}

// ParticipantSummary is one pool member's line in the simulation report.
type ParticipantSummary struct {
	// ID labels the participant; Behavior names its persona.
	ID       string
	Behavior string
	// Cheater records ground truth (semi-honest or malicious).
	Cheater bool
	// Tasks, Accepted, Rejected count assignments and verdicts.
	Tasks, Accepted, Rejected int
	// FEvals counts the participant's evaluations of f.
	FEvals int64
	// BytesSent and BytesRecv are measured at the participant endpoint,
	// summed across every connection (reconnects included).
	BytesSent, BytesRecv int64
	// Blacklisted reports whether scheduling dropped this participant.
	Blacklisted bool
	// Reconnects counts replacement connections dialed to this participant
	// after transport faults quarantined earlier ones.
	Reconnects int
}

// TaskVerdict pairs a task with the supervisor's ruling on it — the
// authoritative per-task record (a participant may never learn its verdict
// when the delivery frame is lost to a fault; the supervisor's ruling
// stands regardless).
type TaskVerdict struct {
	TaskID  uint64
	Verdict Verdict
}

// SimReport aggregates a simulation run.
type SimReport struct {
	// Scheme names the verification scheme used.
	Scheme string
	// PipelineWindow echoes the session window of a pipelined run; 0 means
	// the per-task dialogue was used.
	PipelineWindow int
	// Participants summarizes each pool member.
	Participants []ParticipantSummary
	// TaskVerdicts records the supervisor's ruling per executed task, in
	// task order (replicas repeat the ID).
	TaskVerdicts []TaskVerdict
	// Reports collects every screened result received by the supervisor.
	Reports []Report
	// TasksAssigned counts task executions (replicas count individually).
	TasksAssigned int
	// CheatersDetected counts cheating participants with >= 1 rejection;
	// CheatersTotal counts cheating participants in the pool.
	CheatersDetected, CheatersTotal int
	// HonestAccused counts honest participants with >= 1 rejection —
	// the false positives.
	HonestAccused int
	// SupervisorBytesSent/Recv total the supervisor-side traffic.
	SupervisorBytesSent, SupervisorBytesRecv int64
	// SupervisorEvals counts supervisor-side f evaluations spent verifying.
	SupervisorEvals int64
	// Brokered reports whether the run was relayed through a BrokerHub;
	// BrokerRelayedMsgs and BrokerRelayedBytes then total the frames the
	// hub forwarded (egress, after relay-hop re-batching).
	Brokered                              bool
	BrokerRelayedMsgs, BrokerRelayedBytes int64
	// BrokerMuxLinks counts physical multiplexed supervisor links the hub
	// accepted over the run; BrokerRoutesOpened counts the routes carried on
	// them. A clean brokered run shows every route sharing one link; a
	// faulty run adds one link per quarantine-and-redial.
	BrokerMuxLinks, BrokerRoutesOpened int64
	// BrokerControlMsgs/Bytes total the hub's outgoing mux control traffic
	// (credit grants and route-close notices); BrokerControlInMsgs/Bytes
	// the incoming mirror (supervisor credit grants — the hub→supervisor
	// flow-control loop); BrokerMuxOverheadIngress/Egress are the signed
	// envelope-framing ledgers. None of these bytes appear in
	// BrokerRelayedBytes or any RouteStats direction.
	BrokerControlMsgs, BrokerControlBytes             int64
	BrokerControlInMsgs, BrokerControlInBytes         int64
	BrokerMuxOverheadIngress, BrokerMuxOverheadEgress int64
	// BrokerRoutes snapshots the hub's per-worker relay accounting at
	// shutdown, keyed by participant identity.
	BrokerRoutes map[string]RouteStats
	// WindowsSettled and WindowViolations total the rolling-window
	// commitment verification of a streaming run (Spec.WindowTasks > 0):
	// windows whose sampled audit paths all verified against the committed
	// per-task digests, and windows that failed verification. Restarted
	// runs carry the counts across the restore.
	WindowsSettled, WindowViolations uint64
	// WindowsPending counts decided tasks not yet covered by a full window
	// commitment when the run shut down (the ragged tail of the stream).
	WindowsPending int
}

// DetectionRate is CheatersDetected / CheatersTotal (1 when no cheaters).
func (r *SimReport) DetectionRate() float64 {
	if r.CheatersTotal == 0 {
		return 1
	}
	return float64(r.CheatersDetected) / float64(r.CheatersTotal)
}

// simWorker pairs a participant with its connection endpoints. Under fault
// injection a worker accumulates connections: the original dial plus one per
// reconnect, each serving on its own goroutine. Summaries aggregate traffic
// across all of them.
type simWorker struct {
	participant *Participant
	idx         int
	cheater     bool
	rejections  int
	blacklisted bool
	// hub, when set, routes every dial through the broker instead of a
	// direct pipe; muxes then owns the supervisor-side physical link(s) the
	// routes are multiplexed over.
	hub   *BrokerHub
	muxes *muxManager

	mu        sync.Mutex
	supConns  []transport.Conn // supervisor-side endpoints, in dial order
	partConns []transport.Conn // participant-side endpoints, in dial order
	serveErrs []chan error
	// extraRoutes counts dials made to widen the route fan-out (SimConfig
	// Routes) rather than to replace a quarantined connection, so the
	// reconnect tally stays honest.
	extraRoutes int
}

// muxManager owns the supervisor-side physical hub links of a brokered run.
// Every supervisor route is multiplexed: a clean run shares ONE physical
// link — the tentpole topology, all routes riding one reader/writer pair at
// each end — while a faulty run opens one muxed link per dial so each dial
// keeps its own deterministic fault plan and its own quarantine-and-redial
// lifecycle: a one-route link quarantines exactly its route.
type muxManager struct {
	hub *BrokerHub

	mu     sync.Mutex
	shared *SupervisorMux
	muxes  []*SupervisorMux
}

func newMuxManager(hub *BrokerHub) *muxManager { return &muxManager{hub: hub} }

// sharedMux lazily dials the run's single clean physical link.
func (mm *muxManager) sharedMux() *SupervisorMux {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.shared == nil {
		supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
		go func() { _ = mm.hub.Attach(hubUp) }()
		m, err := OpenMux(supConn, "supervisor")
		if err != nil {
			_ = supConn.Close()
			return nil
		}
		mm.shared = m
		mm.muxes = append(mm.muxes, m)
	}
	return mm.shared
}

// openRoute opens one supervisor route to the named worker. Clean runs open
// it on the shared link; faulty runs dial a fresh muxed link wrapped with
// the (worker, attempt)-seeded fault plan on both ends, preserving the
// per-dial fault determinism and reconnect budgets of the pre-mux topology.
// Dial-time failures yield a dead connection — the session layer's
// quarantine machinery treats it like any lost link and redials.
func (mm *muxManager) openRoute(cfg SimConfig, w *simWorker, attempt int, worker string) transport.Conn {
	if !cfg.faulty() {
		if m := mm.sharedMux(); m != nil {
			if conn, err := m.OpenRoute(worker); err == nil {
				return conn
			}
		}
		return deadConn()
	}
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	sup := transport.WithFaults(supConn, transport.FaultPlan{
		DropProb:   cfg.DropProb,
		GarbleProb: cfg.GarbleProb,
		Seed:       faultSeed(cfg.Seed, w.idx, attempt, 0),
	})
	hubSide := transport.WithFaults(hubUp, transport.FaultPlan{
		DropProb:   cfg.DropProb,
		GarbleProb: cfg.GarbleProb,
		Seed:       faultSeed(cfg.Seed, w.idx, attempt, 1),
	})
	// The hub-side attach runs on its own goroutine: a dropped or garbled
	// mux hello legitimately strands the handshake until the hub's bind
	// watchdog (or the supervisor's receive watchdog) kills the link.
	go func() { _ = mm.hub.Attach(hubSide) }()
	m, err := OpenMux(sup, fmt.Sprintf("sup-%s-%d", worker, attempt))
	if err != nil {
		_ = sup.Close()
		return deadConn()
	}
	mm.mu.Lock()
	mm.muxes = append(mm.muxes, m)
	mm.mu.Unlock()
	conn, err := m.OpenRoute(worker)
	if err != nil {
		return deadConn()
	}
	return conn
}

// close tears down every physical link the run opened, joining the mux
// readers so no goroutine outlives the simulation.
func (mm *muxManager) close() {
	mm.mu.Lock()
	muxes := mm.muxes
	mm.muxes, mm.shared = nil, nil
	mm.mu.Unlock()
	for _, m := range muxes {
		_ = m.Close()
	}
}

// deadConn returns a connection that is already closed, for dial paths that
// failed before producing a usable endpoint.
func deadConn() transport.Conn {
	a, b := transport.Pipe()
	_ = b.Close()
	_ = a.Close()
	return a
}

// fillBroker copies a closed hub's relay ledgers and per-worker route
// snapshots into the report.
func (r *SimReport) fillBroker(hub *BrokerHub) {
	r.Brokered = true
	r.BrokerRelayedMsgs = hub.RelayedMessages()
	r.BrokerRelayedBytes = hub.RelayedBytes()
	r.BrokerMuxLinks = hub.MuxLinks()
	r.BrokerRoutesOpened = hub.RoutesOpened()
	r.BrokerControlMsgs = hub.ControlMessages()
	r.BrokerControlBytes = hub.ControlBytes()
	r.BrokerControlInMsgs = hub.ControlIngressMessages()
	r.BrokerControlInBytes = hub.ControlIngressBytes()
	r.BrokerMuxOverheadIngress = hub.MuxOverheadIngressBytes()
	r.BrokerMuxOverheadEgress = hub.MuxOverheadEgressBytes()
	names := hub.Workers()
	r.BrokerRoutes = make(map[string]RouteStats, len(names))
	for _, name := range names {
		if rs, ok := hub.WorkerStats(name); ok {
			r.BrokerRoutes[name] = rs
		}
	}
}

// faultSeed derives a distinct, reproducible fault-plan seed per (run,
// worker, dial, direction).
func faultSeed(seed uint64, worker, dial, direction int) int64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[:8], seed)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(worker))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(dial))
	binary.LittleEndian.PutUint64(buf[24:], uint64(direction))
	sum := sha256.Sum256(buf[:])
	return int64(binary.LittleEndian.Uint64(sum[:8]))
}

// dial opens a fresh connection to the worker's participant — direct, or
// routed through the broker hub when the run is brokered — wraps the
// supervisor-facing leg with the configured fault plan, and starts a serve
// goroutine on the participant side. It returns the supervisor-side
// endpoint.
func (w *simWorker) dial(cfg SimConfig) transport.Conn {
	if w.hub != nil {
		return w.dialBrokered(cfg)
	}
	supConn, partConn := transport.Pipe(transport.WithBuffer(8))
	var sup, part transport.Conn = supConn, partConn
	w.mu.Lock()
	attempt := len(w.supConns)
	w.mu.Unlock()
	if cfg.faulty() {
		sup = transport.WithFaults(sup, transport.FaultPlan{
			DropProb:   cfg.DropProb,
			GarbleProb: cfg.GarbleProb,
			Seed:       faultSeed(cfg.Seed, w.idx, attempt, 0),
		})
		part = transport.WithFaults(part, transport.FaultPlan{
			DropProb:   cfg.DropProb,
			GarbleProb: cfg.GarbleProb,
			Seed:       faultSeed(cfg.Seed, w.idx, attempt, 1),
		})
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.participant.Serve(part) }()
	w.mu.Lock()
	w.supConns = append(w.supConns, sup)
	w.partConns = append(w.partConns, part)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return sup
}

// dialBrokered opens a fresh identity-routed path through the broker hub:
// a clean hub↔participant link registered under the participant's ID (the
// LAN leg of the GRACE deployment) and a supervisor route multiplexed over
// a physical supervisor↔hub link — the WAN leg, where the fault plan
// applies — whose open hello asks the hub to bind it to that worker.
// Registration is synchronous, so the subsequent bind never waits. It
// returns the supervisor-side route endpoint.
func (w *simWorker) dialBrokered(cfg SimConfig) transport.Conn {
	name := w.participant.ID()
	hubDown, partConn := transport.Pipe(transport.WithBuffer(8))
	_ = HelloWorker(partConn, name)
	_ = w.hub.Attach(hubDown)
	serveErr := make(chan error, 1)
	go func() { serveErr <- w.participant.Serve(partConn) }()

	w.mu.Lock()
	attempt := len(w.supConns)
	w.mu.Unlock()
	sup := w.muxes.openRoute(cfg, w, attempt, name)
	w.mu.Lock()
	w.supConns = append(w.supConns, sup)
	w.partConns = append(w.partConns, partConn)
	w.serveErrs = append(w.serveErrs, serveErr)
	w.mu.Unlock()
	return sup
}

// crash abruptly severs every connection the worker holds, both ends, the
// way a process death would: serve loops exit with transport errors rather
// than a clean EOF, and any in-flight exchange is lost. The worker's durable
// checkpoint files are untouched — that is what a restarted participant
// recovers from.
func (w *simWorker) crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.partConns {
		_ = c.Close()
	}
	for _, c := range w.supConns {
		_ = c.Close()
	}
}

// supConn returns the first (and in fault-free runs, only) supervisor-side
// endpoint.
func (w *simWorker) supConn() transport.Conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.supConns[0]
}

// dials reports how many connections were opened to this participant.
func (w *simWorker) dials() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.supConns)
}

// trafficTotals sums the byte counters across every connection the worker
// ever held, at the given side's endpoints.
func (w *simWorker) trafficTotals(participantSide bool) (sent, recv int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	conns := w.supConns
	if participantSide {
		conns = w.partConns
	}
	for _, c := range conns {
		sent += c.Stats().BytesSent()
		recv += c.Stats().BytesRecv()
	}
	return sent, recv
}

// RunSim executes the configured population run over in-memory pipes and
// returns the aggregated report. The supervisor assigns tasks round-robin
// over the (non-blacklisted) pool; double-check groups consecutive workers.
// With Workers > 1 the non-replicated schemes verify participants
// concurrently through a SupervisorPool; per-task seed derivation keeps the
// report identical to the serial run. With PipelineWindow > 0 tasks flow
// through pipelined multi-task sessions with work stealing instead (see
// SimConfig.PipelineWindow for the reproducibility trade-off).
//
//gridlint:credit report assembly sums per-worker traffic totals once, at shutdown
func RunSim(cfg SimConfig) (*SimReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	supCfg := SupervisorConfig{
		Spec:              cfg.Spec,
		Seed:              int64(cfg.Seed) ^ 0x5c4ed,
		CrossCheckReports: cfg.CrossCheckReports,
	}
	if cfg.Stream {
		return runStreamSim(cfg, supCfg)
	}

	var hub *BrokerHub
	var muxes *muxManager
	if cfg.Broker {
		hub = NewBrokerHub()
		muxes = newMuxManager(hub)
	}
	workers, err := buildPool(cfg, hub, muxes)
	if err != nil {
		if muxes != nil {
			muxes.close()
		}
		if hub != nil {
			_ = hub.Close()
		}
		return nil, err
	}
	// Closing the hub first tears down every route (and any orphaned
	// registered link a faulty handshake left behind), so the participants'
	// serve loops — which shutdownPool joins — always observe EOF; the mux
	// links close next, joining their readers before the serve joins.
	cleanup := func() error {
		if hub != nil {
			_ = hub.Close()
		}
		if muxes != nil {
			muxes.close()
		}
		return shutdownPool(workers)
	}

	report := &SimReport{Scheme: cfg.Spec.Kind.String()}
	var scheduleErr error
	var supervisorEvals func() int64
	if cfg.PipelineWindow > 0 {
		report.PipelineWindow = cfg.PipelineWindow
		pool, err := NewSupervisorPool(supCfg, cfg.participants()*cfg.PipelineWindow)
		if err != nil {
			_ = cleanup()
			return nil, err
		}
		scheduleErr = scheduleTasksPipelined(cfg, pool, workers, report)
		supervisorEvals = pool.VerifyEvals
	} else if cfg.Workers > 1 && cfg.Spec.Kind != SchemeDoubleCheck {
		pool, err := NewSupervisorPool(supCfg, cfg.Workers)
		if err != nil {
			_ = cleanup()
			return nil, err
		}
		scheduleErr = scheduleTasksPooled(cfg, pool, workers, report)
		supervisorEvals = pool.VerifyEvals
	} else {
		supervisor, err := NewSupervisor(supCfg)
		if err != nil {
			_ = cleanup()
			return nil, err
		}
		scheduleErr = scheduleTasks(cfg, supervisor, workers, report)
		supervisorEvals = supervisor.VerifyEvals
	}
	if scheduleErr != nil {
		_ = cleanup()
		return nil, scheduleErr
	}
	if err := cleanup(); err != nil {
		return nil, err
	}
	if hub != nil {
		// Close blocked until every relay pump exited, so these are final.
		report.fillBroker(hub)
	}

	for _, w := range workers {
		totals := w.participant.Totals()
		partSent, partRecv := w.trafficTotals(true)
		summary := ParticipantSummary{
			ID:          w.participant.ID(),
			Behavior:    totals.Behavior,
			Cheater:     w.cheater,
			Tasks:       totals.Tasks,
			Accepted:    totals.Accepted,
			Rejected:    totals.Rejected,
			FEvals:      totals.FEvals,
			BytesSent:   partSent,
			BytesRecv:   partRecv,
			Blacklisted: w.blacklisted,
			Reconnects:  w.dials() - 1 - w.extraRoutes,
		}
		report.Participants = append(report.Participants, summary)
		if w.cheater {
			report.CheatersTotal++
			if totals.Rejected > 0 {
				report.CheatersDetected++
			}
		} else if totals.Rejected > 0 {
			report.HonestAccused++
		}
		supSent, supRecv := w.trafficTotals(false)
		report.SupervisorBytesSent += supSent
		report.SupervisorBytesRecv += supRecv
	}
	report.SupervisorEvals = supervisorEvals()
	return report, nil
}

// buildPool constructs the participant pool — semi-honest cheaters first,
// then malicious, then honest workers — and dials each worker's first
// connection (starting its serve goroutine). A non-nil hub routes every
// connection through the broker as a multiplexed route on muxes.
func buildPool(cfg SimConfig, hub *BrokerHub, muxes *muxManager) ([]*simWorker, error) {
	var workers []*simWorker
	var popts []ParticipantOption
	if cfg.CheckpointDir != "" {
		popts = append(popts, WithCheckpointDir(cfg.CheckpointDir))
	}
	add := func(id string, factory ProducerFactory, cheater bool) error {
		p, err := NewParticipant(id, factory, popts...)
		if err != nil {
			return err
		}
		w := &simWorker{participant: p, idx: len(workers), cheater: cheater, hub: hub, muxes: muxes}
		w.dial(cfg)
		workers = append(workers, w)
		return nil
	}
	for i := 0; i < cfg.SemiHonest; i++ {
		seed := cfg.Seed*1000 + uint64(i)
		if err := add(fmt.Sprintf("semihonest-%d", i),
			SemiHonestFactory(cfg.HonestyRatio, seed), true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Malicious; i++ {
		seed := cfg.Seed*2000 + uint64(i)
		if err := add(fmt.Sprintf("malicious-%d", i),
			MaliciousFactory(cfg.CorruptProb, seed), true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Honest; i++ {
		if err := add(fmt.Sprintf("honest-%d", i), HonestFactory, false); err != nil {
			return nil, err
		}
	}
	return workers, nil
}

// nextEligible returns the next non-blacklisted worker in round-robin
// order starting at *next (which it advances), or nil when the whole pool
// is blacklisted. Both schedulers share it so their assignment order stays
// in lockstep — the basis of the serial/pooled reproducibility guarantee.
func nextEligible(workers []*simWorker, next *int) *simWorker {
	for tries := 0; tries < len(workers); tries++ {
		w := workers[*next%len(workers)]
		*next++
		if !w.blacklisted {
			return w
		}
	}
	return nil
}

// taskFor builds the taskNum-th domain window of the run.
func taskFor(cfg SimConfig, taskNum int) Task {
	return Task{
		ID:       uint64(taskNum),
		Start:    uint64(taskNum) * uint64(cfg.TaskSize),
		N:        uint64(cfg.TaskSize),
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
	}
}

// scheduleTasks drives the supervisor across the task list.
func scheduleTasks(cfg SimConfig, supervisor *Supervisor, workers []*simWorker, report *SimReport) error {
	next := 0
	pick := func() *simWorker { return nextEligible(workers, &next) }

	for taskNum := 0; taskNum < cfg.Tasks; taskNum++ {
		task := taskFor(cfg, taskNum)
		if cfg.Spec.Kind == SchemeDoubleCheck {
			k := cfg.replicaCount()
			group := make([]*simWorker, 0, k)
			conns := make([]transport.Conn, 0, k)
			for tries := 0; len(group) < k && tries < 2*len(workers); tries++ {
				w := pick()
				if w == nil {
					return nil // everyone blacklisted
				}
				if containsWorker(group, w) {
					continue
				}
				group = append(group, w)
				conns = append(conns, w.supConn())
			}
			if len(group) < k {
				return nil // pool too small for distinct replicas; stop cleanly
			}
			outcomes, err := supervisor.RunReplicated(conns, task)
			if err != nil {
				return err
			}
			report.TasksAssigned += len(outcomes)
			for i, outcome := range outcomes {
				recordOutcome(cfg, group[i], outcome, report)
			}
			continue
		}

		w := pick()
		if w == nil {
			return nil // everyone blacklisted
		}
		outcome, err := supervisor.RunTask(w.supConn(), task)
		if err != nil {
			return err
		}
		report.TasksAssigned++
		recordOutcome(cfg, w, outcome, report)
	}
	return nil
}

// scheduleTasksPooled drives the task list through a SupervisorPool.
//
// Without Blacklist, eligibility never changes mid-run: the whole task list
// is assigned round-robin up front and submitted as one batch, so workers
// never idle at artificial barriers (the pool serializes per connection).
//
// With Blacklist, tasks go out in waves: each wave assigns at most one task
// per eligible (distinct, non-blacklisted) participant, runs concurrently,
// then applies verdicts — and with them blacklisting — before the next
// wave. A wave ends exactly where the serial round-robin would wrap, which
// is also the first point the serial scheduler could re-pick a blacklisted
// worker, so task-to-worker pairing is identical to the serial run in both
// modes; only wall-clock time changes.
func scheduleTasksPooled(cfg SimConfig, pool *SupervisorPool, workers []*simWorker, report *SimReport) error {
	ctx := context.Background()
	next := 0
	taskNum := 0
	for taskNum < cfg.Tasks {
		batch := make([]Assignment, 0, cfg.Tasks-taskNum)
		batchWorkers := make([]*simWorker, 0, cfg.Tasks-taskNum)
		for taskNum < cfg.Tasks {
			w := nextEligible(workers, &next)
			if w == nil {
				break
			}
			if cfg.Blacklist && containsWorker(batchWorkers, w) {
				// Wrapped around the pool: close the wave so verdicts can
				// blacklist before this worker is assigned again.
				next--
				break
			}
			batch = append(batch, Assignment{Conn: w.supConn(), Task: taskFor(cfg, taskNum)})
			batchWorkers = append(batchWorkers, w)
			taskNum++
		}
		if len(batch) == 0 {
			return nil // everyone blacklisted
		}
		outcomes, err := pool.RunTasks(ctx, batch)
		if err != nil {
			return err
		}
		report.TasksAssigned += len(outcomes)
		for i, outcome := range outcomes {
			recordOutcome(cfg, batchWorkers[i], outcome, report)
		}
	}
	return nil
}

// scheduleTasksPipelined drives the whole task list through pipelined
// sessions with work stealing (SupervisorPool.RunTasksStream): every
// participant connection holds up to cfg.PipelineWindow tasks in flight and
// claims work from a shared queue. Outcomes are consumed as they stream in
// but recorded into the report in (task, replica) order, so the report
// layout does not depend on completion interleaving. Blacklisting retires a
// participant via TaskStream.Retire, which synchronously recalls its
// unstarted claims. Under fault injection the stream redials replacement
// connections to the same participant so quarantined exchanges resume
// mid-protocol. The double-check scheme runs replicated: groups are
// pre-placed round-robin (matching the serial scheduler's walk), uploads
// pipeline inside each window, and comparisons meet at per-task rendezvous
// barriers.
func scheduleTasksPipelined(cfg SimConfig, pool *SupervisorPool, workers []*simWorker, report *SimReport) error {
	// byConn maps every connection — original dials and fault-mode redials —
	// to its worker; mu guards it against concurrent redial registration.
	var mu sync.Mutex
	byConn := make(map[transport.Conn]*simWorker, len(workers))
	conns := make([]transport.Conn, len(workers))
	for i, w := range workers {
		conns[i] = w.supConn()
		byConn[w.supConn()] = w
	}
	// Routes beyond one-per-participant widen the fan-out round-robin: each
	// extra dial is another multiplexed route (plus a fresh participant-side
	// serve link) claiming tasks from the same work-stealing queue. The hub
	// parks only ONE registration per identity, and every dial re-registers
	// the worker — so before dialing an identity again, wait for its earlier
	// routes to bind and consume their registrations, or the new one would
	// replace (and close) a parked link and starve a pending route until the
	// bind timeout. Faulty runs skip the wait: their hellos may legitimately
	// be lost, and the stream's redial machinery recovers.
	binds := make(map[string]int64, len(workers))
	for j := len(workers); j < cfg.Routes; j++ {
		w := workers[j%len(workers)]
		name := w.participant.ID()
		if binds[name] == 0 {
			binds[name] = 1 // buildPool's initial dial
		}
		if !cfg.faulty() {
			deadline := time.Now().Add(5 * time.Second)
			for {
				st, ok := w.hub.WorkerStats(name)
				if ok && st.Binds >= binds[name] {
					break
				}
				if time.Now().After(deadline) {
					break // surface as a dead route, not a hang
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		c := w.dial(cfg)
		binds[name]++
		w.mu.Lock()
		w.extraRoutes++
		w.mu.Unlock()
		conns = append(conns, c)
		byConn[c] = w
	}
	tasks := make([]Task, cfg.Tasks)
	for i := range tasks {
		tasks[i] = taskFor(cfg, i)
	}

	var opts []StreamOption
	perTask := 1
	if cfg.Spec.Kind == SchemeDoubleCheck {
		perTask = cfg.replicaCount()
		opts = append(opts, WithReplicas(perTask))
	}
	if cfg.Broker {
		// Connections are broker routes, not participants: key replica
		// distinctness (and any future identity-aware scheduling) by the
		// worker each route is bound to, redials included.
		opts = append(opts, WithWorkerIdentity(func(c transport.Conn) string {
			mu.Lock()
			defer mu.Unlock()
			if w := byConn[c]; w != nil {
				return w.participant.ID()
			}
			return ""
		}))
	}
	if cfg.faulty() {
		reconnects := cfg.ReconnectLimit
		if reconnects == 0 {
			reconnects = 8
		}
		recvTimeout := cfg.FaultRecvTimeout
		if recvTimeout == 0 {
			recvTimeout = 2 * time.Second
		}
		opts = append(opts,
			WithStreamRecvTimeout(recvTimeout),
			WithMaxReconnects(reconnects),
			WithRedial(func(old transport.Conn) (transport.Conn, error) {
				mu.Lock()
				w := byConn[old]
				mu.Unlock()
				if w == nil {
					return nil, fmt.Errorf("%w: redial for unknown connection", ErrBadConfig)
				}
				conn := w.dial(cfg)
				mu.Lock()
				byConn[conn] = w
				mu.Unlock()
				return conn, nil
			}))
	}
	stream, err := pool.RunTasksStream(context.Background(), conns, tasks, cfg.PipelineWindow, opts...)
	if err != nil {
		return err
	}

	type completion struct {
		w       *simWorker
		outcome *TaskOutcome
	}
	var completed []completion
	for so := range stream.Outcomes() {
		mu.Lock()
		w := byConn[so.Conn]
		mu.Unlock()
		if cfg.Blacklist && !so.Outcome.Verdict.Accepted {
			w.blacklisted = true
			stream.Retire(so.Conn)
		}
		completed = append(completed, completion{w, so.Outcome})
	}
	if err := stream.Err(); err != nil {
		return err
	}

	// A shortfall is legitimate only when blacklisting retired the whole
	// pool (the serial scheduler stops cleanly there too); anything else
	// means connections were lost beyond the reconnect budget, which must
	// surface as a failure rather than a silently short report.
	if len(completed) < cfg.Tasks*perTask {
		blacklistedAll := true
		for _, w := range workers {
			if !w.blacklisted {
				blacklistedAll = false
				break
			}
		}
		if !blacklistedAll {
			return fmt.Errorf("grid: pipelined run completed %d of %d task executions: participant connections lost beyond recovery",
				len(completed), cfg.Tasks*perTask)
		}
	}

	// Record in (task, replica) order — the serial schedulers' layout.
	sort.Slice(completed, func(i, j int) bool {
		a, b := completed[i].outcome, completed[j].outcome
		if a.Task.ID != b.Task.ID {
			return a.Task.ID < b.Task.ID
		}
		return a.Replica < b.Replica
	})
	report.TasksAssigned = len(completed)
	for _, c := range completed {
		recordOutcome(cfg, c.w, c.outcome, report)
	}
	return nil
}

func recordOutcome(cfg SimConfig, w *simWorker, outcome *TaskOutcome, report *SimReport) {
	report.TaskVerdicts = append(report.TaskVerdicts, TaskVerdict{TaskID: outcome.Task.ID, Verdict: outcome.Verdict})
	report.Reports = append(report.Reports, outcome.Reports...)
	if !outcome.Verdict.Accepted {
		w.rejections++
		if cfg.Blacklist {
			w.blacklisted = true
		}
	}
}

func containsWorker(group []*simWorker, w *simWorker) bool {
	for _, g := range group {
		if g == w {
			return true
		}
	}
	return false
}

// shutdownPool closes every supervisor-side connection a worker ever held
// and waits for all its serve goroutines to exit, returning the first serve
// error.
func shutdownPool(workers []*simWorker) error {
	for _, w := range workers {
		w.mu.Lock()
		for _, c := range w.supConns {
			_ = c.Close()
		}
		w.mu.Unlock()
	}
	var firstErr error
	for _, w := range workers {
		w.mu.Lock()
		serveErrs := append([]chan error(nil), w.serveErrs...)
		w.mu.Unlock()
		for _, ch := range serveErrs {
			if err := <-ch; err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
