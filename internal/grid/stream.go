package grid

// Work-stealing stream scheduler with revocable claims and
// reconnect-and-resume.
//
// PR 2's scheduler parked every worker on one task channel and re-checked
// eligibility at claim time; a connection retired between that re-check and
// the first send could still start a task, and any transport error killed
// the whole run. This scheduler makes both first-class:
//
//   - Claims are leases. A lease is claimed under the dispatcher lock,
//     started under the same lock (where eligibility is re-checked), and
//     can be revoked in between — retirement recalls unstarted leases and
//     reroutes their tickets, so no exchange ever starts on a connection
//     retired before the start. That closes the ROADMAP's "blacklist claim
//     race" completely.
//
//   - Each connection lives in a connSlot that owns the current
//     (connection, session) generation. A quarantined session returns its
//     in-flight attempts to the dispatcher pinned to the slot, the first
//     failing worker redials, and the attempts resume mid-protocol on the
//     replacement session. A slot that exhausts its reconnect budget is
//     dead: its pinned tickets restart from scratch (fresh attempt, fresh
//     per-task randomness — identical to a clean first run) on surviving
//     connections.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/transport"
)

// defaultMaxReconnects bounds replacement connections per slot when
// WithRedial is set without WithMaxReconnects.
const defaultMaxReconnects = 4

// ticket is the dispatcher's unit of work: a task, plus — once an attempt
// exists — its resumable supervisor state. pin binds a mid-protocol attempt
// to the slot whose participant holds the matching prover state. grp and
// repIdx are set on double-check replica tickets: the ticket is one member
// of a replicated group, pre-placed on its slot and settling through the
// group rendezvous.
type ticket struct {
	task   Task
	at     *taskAttempt
	pin    *connSlot
	grp    *replicaGroup
	repIdx int
	// parked marks a replica ticket waiting for its rendezvous to settle:
	// it occupies no worker and no window slot, and claim passes over it
	// until the group's comparison has run. This is what keeps replica
	// barriers deadlock-free — a blocked barrier never holds the scheduler
	// resources its missing sibling needs.
	parked bool
}

// replicaGroup is the dispatcher's view of one replicated task: the shared
// rendezvous plus which slot currently hosts each replica, so placement and
// re-placement keep the group on pairwise-distinct connections. slots is
// guarded by dispatcher.mu after the workers start.
type replicaGroup struct {
	task  Task
	rdv   *replicaRendezvous
	slots []*connSlot
}

// Lease lifecycle (all transitions under dispatcher.mu).
const (
	leaseClaimed int32 = iota
	leaseStarted
	leaseRevoked
)

// lease is one worker's revocable hold on a ticket.
type lease struct {
	ticket
	slot  *connSlot
	state int32
	// banked marks a lease over a banked replica ticket (see
	// dispatcher.banked): the worker synthesizes the outcome from the
	// settled rendezvous instead of running an exchange.
	banked bool
}

// connSlot owns the live (connection, session) pair of one participant link
// and coordinates its replacement after a quarantine. Scheduling state for
// the slot (retirement, pinned tickets) lives in the dispatcher; this struct
// only manages the link itself.
type connSlot struct {
	mu           sync.Mutex
	cond         *sync.Cond
	conn         transport.Conn
	sess         *Session
	gen          int
	reconnecting bool
	dead         bool
	reconnects   int

	// ledger verifies this link's rolling window commits (WithWindowSettle);
	// ctrlAck latches the participant's checkpoint acknowledgement during a
	// drain barrier. Both belong to the slot, not the session — they survive
	// reconnects.
	ledger  *WindowLedger
	ctrlAck atomic.Bool
}

func newConnSlot(conn transport.Conn, sess *Session) *connSlot {
	sl := &connSlot{conn: conn, sess: sess}
	sl.cond = sync.NewCond(&sl.mu)
	return sl
}

// installCtrl wires the slot's session-scoped ctrl demux onto sess: window
// commits feed the slot's ledger, checkpoint acks latch the drain barrier.
// Installed on every session generation the slot owns, so commits keep
// flowing across reconnects.
func (sl *connSlot) installCtrl(sess *Session) {
	sess.setCtrl(func(tm taggedMsg) error {
		switch tm.Type {
		case msgWindowCommit:
			if sl.ledger == nil {
				return fmt.Errorf("%w: window commit on a stream without window settling", ErrUnexpectedMessage)
			}
			return sl.ledger.onCommit(tm.Payload)
		case msgCheckpointAck:
			if len(tm.Payload) != 0 {
				return fmt.Errorf("%w: checkpoint ack carries %d bytes", ErrBadPayload, len(tm.Payload))
			}
			sl.ctrlAck.Store(true)
			return nil
		default:
			return fmt.Errorf("%w: ctrl message type %d", ErrUnexpectedMessage, tm.Type)
		}
	})
}

// current returns the live session, its generation, and its connection.
func (sl *connSlot) current() (*Session, int, transport.Conn) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.sess, sl.gen, sl.conn
}

// currentConn returns the live connection. Safe to call with dispatcher.mu
// held — the lock order is dispatcher.mu before connSlot.mu, never the
// reverse.
func (sl *connSlot) currentConn() transport.Conn {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.conn
}

// dispatcher is the shared scheduling state: pending (unpinned) tickets,
// per-slot pinned resume tickets, and the outstanding leases. Everything —
// claims, starts, retirements, revocations — serializes on mu, which is what
// makes retire-before-start a real happens-before edge.
type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	pending []ticket
	pinned  map[*connSlot][]ticket
	leases  map[*lease]struct{}
	retired map[*connSlot]bool
	dead    map[*connSlot]bool
	// banked holds replica tickets whose upload already reached the group
	// rendezvous when their slot died: the upload still votes, the exchange
	// cannot resume anywhere (the participant's prover state died with it),
	// and the outcome is synthesized from the group verdict once it settles.
	banked []ticket
	// source feeds tickets lazily (RunTaskSource): refillLocked materializes
	// at most highWater tickets ahead of execution, consuming source at
	// sourceNext until it reports exhaustion (sourceDone). pinnedRR places
	// source task i on slot i mod len(allSlots) instead of the shared queue.
	source     TaskSource
	sourceNext uint64
	sourceDone bool
	highWater  int
	pinnedRR   bool
	// slots maps every connection a slot has owned (original and
	// replacements) back to it, for Retire.
	slots map[transport.Conn]*connSlot
	// allSlots lists every slot in connection order, for replica
	// re-placement; groups lists every replica rendezvous so a failing or
	// cancelled run can release blocked barriers.
	allSlots []*connSlot
	groups   []*replicaGroup

	eligible func(transport.Conn) bool
	// identity, when set (WithWorkerIdentity), maps a connection to the
	// participant behind it; replica distinctness is then per worker, not
	// per connection slot. Consulted under mu — it must be fast and must
	// not call back into the dispatcher.
	identity  func(transport.Conn) string
	pool      *SupervisorPool
	cancelled bool
	err       error
	cancel    context.CancelFunc
	// wake carries rendezvous-settled nudges from notifyReady to the waker
	// goroutine, which re-broadcasts under mu so claim waiters re-scan for
	// parked tickets that became claimable.
	wake chan struct{}
}

func newDispatcher(pool *SupervisorPool, cfg *streamConfig, cancel context.CancelFunc) *dispatcher {
	d := &dispatcher{
		pinned:   make(map[*connSlot][]ticket),
		leases:   make(map[*lease]struct{}),
		retired:  make(map[*connSlot]bool),
		dead:     make(map[*connSlot]bool),
		slots:    make(map[transport.Conn]*connSlot),
		eligible: cfg.eligible,
		identity: cfg.identity,
		pool:     pool,
		cancel:   cancel,
		wake:     make(chan struct{}, 1),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// groupHosts reports whether sl already carries a member of g — directly,
// or (with a WithWorkerIdentity mapping) through any connection routed to
// the same worker. Pairwise-distinct placement keyed this way keeps replica
// groups on distinct participants even when several connections (broker
// routes, say) reach one worker. skip names a member index to ignore: a
// replica being re-placed vacates its own position, so its dead slot's
// worker must not veto a replacement route to that same worker (pass -1 to
// consider every member).
func (d *dispatcher) groupHosts(g *replicaGroup, sl *connSlot, skip int) bool {
	for i, member := range g.slots {
		if i == skip || member == nil {
			continue
		}
		if member == sl {
			return true
		}
	}
	if d.identity == nil {
		return false
	}
	id := d.identity(sl.currentConn())
	if id == "" {
		return false
	}
	for i, member := range g.slots {
		if i == skip || member == nil {
			continue
		}
		if d.identity(member.currentConn()) == id {
			return true
		}
	}
	return false
}

// notifyReady is the rendezvous onReady hook: a non-blocking nudge that a
// parked replica may have become claimable. It takes no locks, so a
// rendezvous may settle from any lock context (including under d.mu, as
// quorum failure during markDead does); the waker goroutine converts the
// nudge into a cond.Broadcast under the dispatcher lock.
func (d *dispatcher) notifyReady() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// abandonAttempt closes the accounting of an attempt that will never reach
// an outcome: settle its verification evals into the supervisor totals and
// credit the tagged bytes that really crossed the wire on its (now dead)
// connections to the pool counters — the only place that traffic can still
// be reported. Settling is idempotent, so an attempt abandoned twice is
// counted once.
//
//gridlint:credit last-resort crediting for traffic whose attempt cannot report an outcome
func (d *dispatcher) abandonAttempt(at *taskAttempt) {
	if at == nil || at.settled {
		return
	}
	at.settle(d.pool.sup)
	d.pool.bytesSent.Add(at.bytesSent)
	d.pool.bytesRecv.Add(at.bytesRecv)
}

// settleOutstanding abandons every ticket left behind at teardown — pending
// or pinned work stranded by cancellation or mass retirement — so eval and
// byte accounting stay complete even on runs that do not finish their task
// list.
func (d *dispatcher) settleOutstanding() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.pending {
		d.abandonAttempt(t.at)
	}
	for _, ts := range d.pinned {
		for _, t := range ts {
			d.abandonAttempt(t.at)
		}
	}
	for _, t := range d.banked {
		d.abandonAttempt(t.at)
	}
}

// fail records the run's first error and cancels everything.
func (d *dispatcher) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.cancelled = true
	d.abortGroupsLocked(err)
	d.cond.Broadcast()
	d.mu.Unlock()
	d.cancel()
}

// stop ends scheduling without an error (context cancelled upstream).
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.cancelled = true
	d.abortGroupsLocked(context.Canceled)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// abortGroupsLocked releases every replica barrier so no exchange stays
// blocked waiting for siblings that will never arrive. Completed groups are
// untouched (abort is a no-op once a rendezvous settled).
func (d *dispatcher) abortGroupsLocked(err error) {
	for _, g := range d.groups {
		g.rdv.abort(err)
	}
}

// firstErr returns the recorded failure, if any.
func (d *dispatcher) firstErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *dispatcher) registerConn(conn transport.Conn, sl *connSlot) {
	d.mu.Lock()
	d.slots[conn] = sl
	d.mu.Unlock()
}

// retireConn implements TaskStream.Retire.
func (d *dispatcher) retireConn(conn transport.Conn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sl, ok := d.slots[conn]; ok {
		d.retireLocked(sl)
	}
}

// retireLocked stops fresh claims on the slot and recalls its revocable
// (claimed, unstarted, unpinned) leases, rerouting their tickets to the
// pending queue for other connections. Pinned leases — resumed work already
// in flight before retirement — are left to finish.
func (d *dispatcher) retireLocked(sl *connSlot) {
	if d.retired[sl] {
		return
	}
	d.retired[sl] = true
	for l := range d.leases {
		if l.slot == sl && l.state == leaseClaimed && l.pin == nil {
			l.state = leaseRevoked
			delete(d.leases, l)
			d.pending = append(d.pending, l.ticket)
		}
	}
	d.cond.Broadcast()
}

// markDead declares the slot's link permanently gone: retire it and restart
// everything still bound to it — queued pinned tickets and claimed pinned
// leases — from scratch on the pending queue (replica tickets are instead
// re-placed on a connection free of their siblings, or declared lost).
func (d *dispatcher) markDead(sl *connSlot) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead[sl] = true
	d.retireLocked(sl)
	for l := range d.leases {
		if l.slot == sl && l.state == leaseClaimed {
			l.state = leaseRevoked
			delete(d.leases, l)
			d.restartTicketLocked(l.ticket)
		}
	}
	for _, t := range d.pinned[sl] {
		d.restartTicketLocked(t)
	}
	delete(d.pinned, sl)
	d.cond.Broadcast()
}

// restartTicketLocked abandons a ticket's attempt (settling its eval and
// byte accounting) and requeues the bare task. The fresh attempt created on
// the next claim re-derives its randomness from the task seed, so the
// retried verdict is identical to a clean first run on whichever participant
// picks it up. Replica tickets keep their group identity and route through
// re-placement instead of the shared queue.
func (d *dispatcher) restartTicketLocked(t ticket) {
	if t.grp != nil {
		d.replaceReplicaLocked(t, t.grp.slots[t.repIdx])
		return
	}
	d.abandonAttempt(t.at)
	d.pending = append(d.pending, ticket{task: t.task})
}

// replaceReplicaLocked moves a replica whose slot died onto a live,
// non-retired connection that hosts none of its siblings, restarting it
// from scratch there (the dead participant's protocol state is gone). A
// replica whose upload already reached the rendezvous is not restarted: the
// banked upload still votes in the group comparison, and re-running the
// task elsewhere would burn a full execution only to submit a second,
// ignored upload — the ticket is banked instead and its outcome synthesized
// from the group verdict once it settles. When no replacement connection
// exists the replica is declared lost and the group's comparison degrades
// to a quorum over the remaining uploads.
func (d *dispatcher) replaceReplicaLocked(t ticket, dead *connSlot) {
	if t.at != nil && t.at.pt.st.submitted {
		t.pin = dead
		t.parked = false
		d.banked = append(d.banked, t)
		return
	}
	d.abandonAttempt(t.at)
	grp := t.grp
	var repl *connSlot
	for _, cand := range d.allSlots {
		if cand == dead || d.dead[cand] || d.retired[cand] || d.groupHosts(grp, cand, t.repIdx) {
			continue
		}
		repl = cand
		break
	}
	if repl == nil {
		grp.rdv.fail(t.repIdx)
		return
	}
	grp.slots[t.repIdx] = repl
	d.pinned[repl] = append(d.pinned[repl], ticket{task: t.task, grp: grp, repIdx: t.repIdx, pin: repl})
}

// claim blocks until the slot has work: banked outcomes ready to settle,
// its own pinned resume tickets, then the shared pending queue (refilled
// from the task source when one is set). It returns false when the worker
// should exit — run cancelled, slot retired with no pinned work left, or
// all work globally drained.
func (d *dispatcher) claim(sl *connSlot) (*lease, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.cancelled {
			return nil, false
		}
		if l, ok := d.takeBankedLocked(sl); ok {
			return l, true
		}
		if ts := d.pinned[sl]; len(ts) > 0 {
			// FIFO over the claimable tickets; replicas parked at an
			// unready rendezvous are passed over (they need no worker until
			// the group settles — the waker re-broadcasts when it does).
			for i, t := range ts {
				if t.parked && !t.grp.rdv.ready() {
					continue
				}
				d.pinned[sl] = append(append(make([]ticket, 0, len(ts)-1), ts[:i]...), ts[i+1:]...)
				return d.leaseLocked(t, sl), true
			}
		}
		if !d.retired[sl] && d.eligible != nil && !d.eligible(sl.currentConn()) {
			d.retireLocked(sl)
		}
		if d.retired[sl] {
			// A retired slot claims nothing fresh, but its workers must
			// outlive any tickets still pinned to it — a replica parked at
			// an unready barrier becomes claimable only when the group
			// settles, and exiting now would strand it.
			if len(d.pinned[sl]) == 0 {
				return nil, false
			}
			d.cond.Wait()
			continue
		}
		if refilled := d.refillLocked(); refilled && len(d.pinned[sl]) > 0 {
			continue // the refill pinned work to this very slot
		}
		if len(d.pending) > 0 {
			t := d.pending[0]
			d.pending = d.pending[1:]
			return d.leaseLocked(t, sl), true
		}
		if d.sourceDrainedLocked() && len(d.leases) == 0 && d.pinnedEmptyLocked() && len(d.banked) == 0 {
			return nil, false
		}
		d.cond.Wait()
	}
}

// takeBankedLocked claims the first banked replica ticket whose rendezvous
// has settled. Any slot's worker may settle a banked outcome — no exchange
// runs, the verdict is read from the rendezvous.
func (d *dispatcher) takeBankedLocked(sl *connSlot) (*lease, bool) {
	for i, t := range d.banked {
		if !t.grp.rdv.ready() {
			continue
		}
		d.banked = append(d.banked[:i], d.banked[i+1:]...)
		l := d.leaseLocked(t, sl)
		l.banked = true
		return l, true
	}
	return nil, false
}

// sourceDrainedLocked reports whether no further tickets can appear from
// the task source (trivially true without one).
func (d *dispatcher) sourceDrainedLocked() bool {
	return d.source == nil || d.sourceDone
}

// refillLocked tops the scheduler up from the task source: tickets are
// materialized until highWater of them are outstanding (queued, pinned, or
// leased), so an unbounded stream holds a bounded working set. Reports
// whether any ticket was added; waiters are woken so every slot sees the
// new work.
func (d *dispatcher) refillLocked() bool {
	if d.sourceDrainedLocked() {
		return false
	}
	outstanding := len(d.pending) + len(d.leases) + len(d.banked)
	for _, ts := range d.pinned {
		outstanding += len(ts)
	}
	added := false
	for outstanding < d.highWater {
		task, ok := d.source(d.sourceNext)
		if !ok {
			d.sourceDone = true
			break
		}
		idx := d.sourceNext
		d.sourceNext++
		if d.pinnedRR {
			// Deterministic placement: task i belongs to slot i mod conns. A
			// dead slot's share falls back to the shared queue — determinism
			// is only promised while every link lives.
			sl := d.allSlots[int(idx)%len(d.allSlots)]
			if d.dead[sl] {
				d.pending = append(d.pending, ticket{task: task})
			} else {
				d.pinned[sl] = append(d.pinned[sl], ticket{task: task, pin: sl})
			}
		} else {
			d.pending = append(d.pending, ticket{task: task})
		}
		outstanding++
		added = true
	}
	if added {
		d.cond.Broadcast()
	}
	return added
}

func (d *dispatcher) pinnedEmptyLocked() bool {
	for _, ts := range d.pinned {
		if len(ts) > 0 {
			return false
		}
	}
	return true
}

func (d *dispatcher) leaseLocked(t ticket, sl *connSlot) *lease {
	l := &lease{ticket: t, slot: sl, state: leaseClaimed}
	d.leases[l] = struct{}{}
	return l
}

// start atomically re-checks eligibility and transitions the lease to
// started. A fresh lease whose connection was retired between claim and this
// call is revoked here and its ticket rerouted — the recall that closes the
// claim/start race. Pinned tickets bypass the gate: they are in-flight work
// finishing on the participant that holds their state.
func (d *dispatcher) start(l *lease) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l.state == leaseRevoked {
		return false
	}
	if d.cancelled {
		l.state = leaseRevoked
		delete(d.leases, l)
		d.cond.Broadcast()
		return false
	}
	if l.pin == nil {
		if !d.retired[l.slot] && d.eligible != nil && !d.eligible(l.slot.currentConn()) {
			d.retireLocked(l.slot)
		}
		if d.retired[l.slot] {
			l.state = leaseRevoked
			delete(d.leases, l)
			d.pending = append(d.pending, l.ticket)
			d.cond.Broadcast()
			return false
		}
	}
	l.state = leaseStarted
	return true
}

// complete releases a finished lease.
func (d *dispatcher) complete(l *lease) {
	d.mu.Lock()
	delete(d.leases, l)
	d.cond.Broadcast()
	d.mu.Unlock()
}

// parkAtBarrier shelves a replica whose exchange reached an incomplete
// rendezvous: the ticket keeps its attempt (upload submitted, protocol
// state live on the participant) and waits, claimable again once the
// group settles and the waker broadcasts.
func (d *dispatcher) parkAtBarrier(l *lease) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, l)
	t := l.ticket
	t.pin = l.slot
	t.parked = true
	d.pinned[l.slot] = append(d.pinned[l.slot], t)
	d.cond.Broadcast()
}

// parkForResume returns a quarantined lease's ticket to the scheduler: bound
// mid-protocol attempts pin to their slot (to resume on the replacement
// connection), unbound ones rejoin the shared queue for any connection, and
// tickets whose slot is already dead restart from scratch. Replica tickets
// always stay with their slot — sibling distinctness is per slot — unless
// the slot is dead, in which case they are re-placed.
func (d *dispatcher) parkForResume(l *lease) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, l)
	t := l.ticket
	switch {
	case t.grp != nil && d.dead[l.slot]:
		d.replaceReplicaLocked(t, l.slot)
	case t.grp != nil:
		t.pin = l.slot
		d.pinned[l.slot] = append(d.pinned[l.slot], t)
	case t.at != nil && t.at.started() && d.dead[l.slot]:
		d.restartTicketLocked(t)
	case t.at != nil && t.at.started():
		t.pin = l.slot
		d.pinned[l.slot] = append(d.pinned[l.slot], t)
	default:
		t.pin = nil
		d.pending = append(d.pending, t)
	}
	d.cond.Broadcast()
}

// recover re-establishes the slot's link after generation gen died. The
// first worker in becomes the leader: it quarantines the old connection
// (closing it and banking the dead session's framing overhead), redials, and
// opens a replacement session; late arrivals wait for the outcome. It
// returns false when the slot is permanently dead.
//
//gridlint:credit banks the dead session's framing overhead before the slot moves on
func (sl *connSlot) recover(gen int, d *dispatcher, p *SupervisorPool, cfg *streamConfig, window int) bool {
	sl.mu.Lock()
	for {
		if sl.dead {
			sl.mu.Unlock()
			return false
		}
		if sl.gen > gen {
			sl.mu.Unlock()
			return true // another worker already replaced the link
		}
		if !sl.reconnecting {
			sl.reconnecting = true
			break
		}
		sl.cond.Wait()
	}
	oldConn, oldSess := sl.conn, sl.sess
	canRetry := cfg.redial != nil && sl.reconnects < cfg.maxReconnects
	sl.mu.Unlock()

	// Quarantine: the connection is gone either way, and the dead session's
	// shared framing overhead must survive into the pool counters.
	_ = oldConn.Close()
	oldSess.abandon()
	ovSent, ovRecv := oldSess.OverheadBytes()
	p.bytesSent.Add(ovSent)
	p.bytesRecv.Add(ovRecv)

	var newConn transport.Conn
	var newSess *Session
	if canRetry {
		if conn, err := cfg.redial(oldConn); err == nil && conn != nil {
			if sess, err := p.sup.OpenSession(conn, window, WithSessionRecvTimeout(cfg.recvTimeout)); err == nil {
				newConn, newSess = conn, sess
			} else {
				_ = conn.Close()
			}
		}
	}

	// Register before publishing: the moment the swap below makes newConn
	// visible through sl.current(), outcomes can carry it and
	// TaskStream.Retire(newConn) must already resolve to this slot.
	if newSess != nil {
		d.registerConn(newConn, sl)
	}

	sl.mu.Lock()
	sl.reconnecting = false
	if newSess == nil {
		sl.dead = true
		sl.cond.Broadcast()
		sl.mu.Unlock()
		d.markDead(sl)
		return false
	}
	sl.installCtrl(newSess)
	sl.conn, sl.sess = newConn, newSess
	sl.gen++
	sl.reconnects++
	sl.cond.Broadcast()
	sl.mu.Unlock()
	return true
}

// settleBanked closes out a banked replica: read the settled group verdict,
// fold the attempt's accounting into the pool, and report the outcome the
// dead link's exchange would have produced. A rendezvous error (quorum
// lost) leaves no verdict to report; the attempt still settles.
//
//gridlint:credit a banked replica's bytes reach the pool here, its exchange being unfinishable
func (p *SupervisorPool) settleBanked(l *lease) (*TaskOutcome, error) {
	at := l.at
	v, err := l.grp.rdv.await(l.repIdx)
	at.settle(p.sup)
	p.bytesSent.Add(at.bytesSent)
	p.bytesRecv.Add(at.bytesRecv)
	if err != nil {
		return nil, err
	}
	pt := at.pt
	pt.outcome.Verdict = v
	pt.outcome.BytesSent = at.bytesSent
	pt.outcome.BytesRecv = at.bytesRecv
	return pt.outcome, nil
}

// RunTasksStream verifies tasks over pipelined sessions with work stealing:
// every connection opens a session holding up to `window` concurrent task
// exchanges, and all sessions claim tasks from one shared queue — fast
// participants take more work instead of idling behind static per-conn
// groups. Outcomes stream out as they complete.
//
// Claims are revocable leases: a connection retired (TaskStream.Retire or
// the WithEligibility gate) between claiming a task and starting its
// exchange has the claim recalled and the task rerouted, so no exchange ever
// starts on a retired connection. With WithRedial, a transport fault
// quarantines the connection and its in-flight tasks resume mid-protocol on
// a replacement connection to the same participant — verdicts and the
// per-task randomness stream are unaffected, so a faulty run's verdicts are
// byte-identical to a clean run's with equal seeds. Tasks stranded on a dead
// slot restart from scratch elsewhere; work is only dropped, cleanly, when
// every connection is retired (callers detect the shortfall by counting
// outcomes).
//
// Which connection runs which task is scheduling-dependent; the verdict of a
// given (task, connection) pair is not. The pool's worker bound applies
// across sessions: at most `workers` exchanges execute at once. The first
// protocol-level error cancels the run and surfaces on TaskStream.Err.
//
// With the double-check scheme the stream runs replicated: every task fans
// out to WithReplicas(R) pairwise-distinct connections (placed round-robin
// over conns), each replica's upload phase pipelines freely inside its
// session window, and the settle phase meets a cross-connection rendezvous
// that compares the group's uploads and issues one verdict per replica — R
// outcomes per task, ordered by (Task.ID, Replica) like the serial
// RunReplicated slice, with verdicts byte-identical to it for equal seeds.
// A replica reaching an incomplete rendezvous parks — holding no worker
// and no window slot — and is re-claimed when the group settles, so
// barriers can never deadlock the scheduler however tasks interleave.
//
//gridlint:credit teardown folds each surviving session's framing overhead into the pool totals
func (p *SupervisorPool) RunTasksStream(ctx context.Context, conns []transport.Conn, tasks []Task, window int, opts ...StreamOption) (*TaskStream, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("%w: no connections", ErrBadConfig)
	}
	cfg := streamConfig{maxReconnects: defaultMaxReconnects}
	for _, opt := range opts {
		opt.applyStream(&cfg)
	}
	replicated := p.sup.cfg.Spec.Kind == SchemeDoubleCheck
	replicas := cfg.replicas
	switch {
	case replicated && replicas == 0:
		replicas = 2
	case replicated && replicas < 2:
		return nil, fmt.Errorf("%w: double-check needs >= 2 replicas, got %d", ErrBadConfig, replicas)
	case !replicated && replicas != 0:
		return nil, fmt.Errorf("%w: WithReplicas requires the double-check scheme", ErrBadConfig)
	}
	if replicated && len(conns) < replicas {
		return nil, fmt.Errorf("%w: %d replicas need as many distinct connections, got %d",
			ErrBadConfig, replicas, len(conns))
	}
	if replicated && cfg.identity != nil {
		// With identity-keyed distinctness the guarantee that pre-placement
		// always finds a sibling-free connection needs as many distinct
		// workers as replicas, not just connections.
		distinct := make(map[string]struct{}, len(conns))
		for i, conn := range conns {
			id := cfg.identity(conn)
			if id == "" {
				id = fmt.Sprintf("\x00conn-%d", i) // unknown: distinct by connection
			}
			distinct[id] = struct{}{}
		}
		if len(distinct) < replicas {
			return nil, fmt.Errorf("%w: %d replicas need as many distinct workers, got %d",
				ErrBadConfig, replicas, len(distinct))
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	d := newDispatcher(p, &cfg, cancel)
	slots, err := p.openStreamSlots(d, conns, window, &cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	if replicated {
		// Pre-place every group round-robin with a single cursor, skipping
		// connections already holding a sibling — the same walk the serial
		// simulator's scheduler performs, so the task→replica→connection
		// pairing (and with it every verdict) matches the dialogue run.
		// Per-slot FIFO claiming then works all slots through the groups in
		// the same global order, which keeps the barriers deadlock-free.
		cursor := 0
		for _, t := range tasks {
			rdv := newReplicaRendezvous(replicas)
			rdv.onReady = d.notifyReady
			grp := &replicaGroup{task: t, rdv: rdv, slots: make([]*connSlot, replicas)}
			d.groups = append(d.groups, grp)
			for j := 0; j < replicas; j++ {
				var sl *connSlot
				for tries := 0; tries < len(slots); tries++ {
					cand := slots[cursor%len(slots)]
					cursor++
					if !d.groupHosts(grp, cand, -1) {
						sl = cand
						break
					}
				}
				// len(conns) >= replicas distinct workers guarantees a
				// sibling-free connection within len(slots) candidates.
				grp.slots[j] = sl
				d.pinned[sl] = append(d.pinned[sl], ticket{task: t, grp: grp, repIdx: j, pin: sl})
			}
		}
	} else {
		for _, t := range tasks {
			d.pending = append(d.pending, ticket{task: t})
		}
	}

	return p.launchStream(ctx, cancel, d, &cfg, slots, window), nil
}

// RunTaskSource verifies an unbounded (or very long) task stream over
// pipelined sessions: tasks are drawn lazily from source under a bounded
// look-ahead of 2 × window × len(conns) tickets, so scheduler memory is
// O(window × connections) regardless of stream length. Everything RunTasksStream
// documents — revocable claims, quarantine/resume, retirement — applies;
// the double-check scheme is not supported (replica groups need the full
// task list for pre-placement; use RunTasksStream).
//
// With WithWindowSettle the run carries rolling window commitments, and
// with WithDrainCheckpoint it ends with a durable checkpoint barrier —
// together the machinery behind kill-and-restart long-horizon runs.
func (p *SupervisorPool) RunTaskSource(ctx context.Context, conns []transport.Conn, source TaskSource, window int, opts ...StreamOption) (*TaskStream, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("%w: no connections", ErrBadConfig)
	}
	if source == nil {
		return nil, fmt.Errorf("%w: nil task source", ErrBadConfig)
	}
	cfg := streamConfig{maxReconnects: defaultMaxReconnects}
	for _, opt := range opts {
		opt.applyStream(&cfg)
	}
	if p.sup.cfg.Spec.Kind == SchemeDoubleCheck || cfg.replicas != 0 {
		return nil, fmt.Errorf("%w: RunTaskSource does not support replicated double-check; use RunTasksStream", ErrBadConfig)
	}
	ctx, cancel := context.WithCancel(ctx)
	d := newDispatcher(p, &cfg, cancel)
	slots, err := p.openStreamSlots(d, conns, window, &cfg)
	if err != nil {
		cancel()
		return nil, err
	}
	d.source = source
	d.sourceNext = cfg.sourceBase
	d.highWater = 2 * window * len(conns)
	d.pinnedRR = cfg.pinned

	return p.launchStream(ctx, cancel, d, &cfg, slots, window), nil
}

// openStreamSlots opens one pipelined session per connection and wraps each
// in a registered connSlot, attaching window ledgers (WithWindowSettle) and
// the ctrl demux. On error every session already opened is closed.
func (p *SupervisorPool) openStreamSlots(d *dispatcher, conns []transport.Conn, window int, cfg *streamConfig) ([]*connSlot, error) {
	if cfg.ledgers != nil && len(cfg.ledgers) != len(conns) {
		return nil, fmt.Errorf("%w: %d window ledgers for %d connections", ErrBadConfig, len(cfg.ledgers), len(conns))
	}
	slots := make([]*connSlot, len(conns))
	for i, conn := range conns {
		sess, err := p.sup.OpenSession(conn, window, WithSessionRecvTimeout(cfg.recvTimeout))
		if err != nil {
			for _, sl := range slots[:i] {
				_ = sl.sess.Close()
			}
			return nil, err
		}
		slots[i] = newConnSlot(conn, sess)
		if cfg.ledgers != nil {
			slots[i].ledger = cfg.ledgers[i]
		}
		slots[i].installCtrl(sess)
		d.registerConn(conn, slots[i])
	}
	d.allSlots = slots
	return slots, nil
}

// launchStream starts the shared machinery of a streaming run: the
// cancellation watcher, the rendezvous waker, the per-slot exchange
// workers, and the finisher that drains, optionally checkpoints, closes the
// sessions, and publishes the terminal error.
//
//gridlint:credit teardown folds each surviving session's framing overhead into the pool totals
func (p *SupervisorPool) launchStream(ctx context.Context, cancel context.CancelFunc, d *dispatcher, cfg *streamConfig, slots []*connSlot, window int) *TaskStream {
	stream := &TaskStream{
		outcomes: make(chan StreamedOutcome),
		done:     make(chan struct{}),
		d:        d,
	}

	// Wake parked workers when the caller cancels.
	go func() {
		<-ctx.Done()
		d.stop()
	}()
	// The waker: rendezvous settle from arbitrary goroutines (and lock
	// contexts); this loop turns their lock-free nudges into dispatcher
	// broadcasts so claim waiters re-scan parked tickets. It ends with the
	// run — d.stop's own broadcast covers the shutdown races.
	go func() {
		for {
			select {
			case <-d.wake:
				d.mu.Lock()
				d.cond.Broadcast()
				d.mu.Unlock()
			case <-ctx.Done():
				return
			}
		}
	}()

	// The pool's worker bound applies across all sessions, exactly as in
	// RunTasks: sessions hold up to `window` claims each, but at most
	// p.workers exchanges execute at once.
	sem := make(chan struct{}, p.workers)

	var workers sync.WaitGroup
	for _, sl := range slots {
		sl := sl
		for w := 0; w < window; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				p.streamWorker(ctx, d, sl, cfg, window, sem, stream)
			}()
		}
	}

	workersDone := make(chan struct{})
	go func() {
		workers.Wait()
		close(workersDone)
	}()

	// Finisher: settle stranded work, run the drain checkpoint barrier if
	// one was requested, close the surviving sessions (flushing their
	// writers) and bank their framing overhead — dead sessions were banked
	// at quarantine — then publish the terminal error and close the stream.
	go func() {
		<-workersDone
		d.settleOutstanding()
		var closeErr error
		if cfg.doDrainCkpt && d.firstErr() == nil && ctx.Err() == nil {
			if err := checkpointSlots(slots, cfg.drainCkpt); err != nil {
				closeErr = fmt.Errorf("grid: drain checkpoint: %w", err)
			}
		}
		for _, sl := range slots {
			sl.mu.Lock()
			dead, sess := sl.dead, sl.sess
			sl.mu.Unlock()
			if dead {
				continue
			}
			if err := sess.Close(); err != nil && closeErr == nil {
				closeErr = fmt.Errorf("grid: session close: %w", err)
			}
			ovSent, ovRecv := sess.OverheadBytes()
			p.bytesSent.Add(ovSent)
			p.bytesRecv.Add(ovRecv)
		}
		cancel()
		d.mu.Lock()
		if d.err == nil && closeErr != nil {
			d.err = closeErr
		}
		stream.err = d.err
		d.mu.Unlock()
		close(stream.outcomes)
		close(stream.done)
	}()

	return stream
}

// checkpointSlots runs the drain-time checkpoint barrier: each live link is
// asked to persist its durable state (msgCheckpoint) and the barrier holds
// until the participant acknowledges. Links are visited serially — the
// barrier runs once per segment, its cost is a round trip per link.
func checkpointSlots(slots []*connSlot, seq uint64) error {
	payload := encodeCheckpoint(checkpointMsg{Seq: seq})
	for _, sl := range slots {
		sl.mu.Lock()
		dead, sess := sl.dead, sl.sess
		sl.mu.Unlock()
		if dead {
			continue
		}
		sl.ctrlAck.Store(false)
		if err := sess.sendCtrl(msgCheckpoint, payload); err != nil {
			return err
		}
		if err := sess.pullCtrl(func() bool { return sl.ctrlAck.Load() }); err != nil {
			return err
		}
	}
	return nil
}

// streamWorker is one of a slot's `window` exchange drivers: claim, start
// (or yield to a revocation), run the attempt, and either stream the
// outcome, park the attempt for resume, or fail the run.
//
//gridlint:credit pool totals fold in each streamed outcome's settled bytes
func (p *SupervisorPool) streamWorker(ctx context.Context, d *dispatcher, sl *connSlot, cfg *streamConfig, window int, sem chan struct{}, stream *TaskStream) {
	for {
		l, ok := d.claim(sl)
		if !ok {
			return
		}
		if !d.start(l) {
			continue
		}
		if l.banked {
			// The dead replica's upload already votes at the rendezvous
			// (which is ready, or this lease would not exist); synthesize its
			// outcome without an exchange. The outcome's connection is the
			// dead link that carried the upload, so per-worker attribution
			// stays truthful.
			outcome, err := p.settleBanked(l)
			if err == nil {
				select {
				case stream.outcomes <- StreamedOutcome{Outcome: outcome, Conn: l.pin.currentConn()}:
				case <-ctx.Done():
				}
			}
			d.complete(l)
			continue
		}
		if l.at == nil {
			var at *taskAttempt
			var err error
			if l.grp != nil {
				at, err = p.sup.newReplicaAttempt(l.task, l.grp.rdv, l.repIdx)
			} else {
				at, err = p.sup.NewAttempt(l.task)
			}
			if err != nil {
				d.complete(l)
				d.fail(fmt.Errorf("grid: task %d: %w", l.task.ID, err))
				return
			}
			l.at = at
		}
		// Bind the attempt to this slot's window ledger (nil without window
		// settling) so decide() banks the task's stream digest on the link
		// whose commits will cover it. Re-bound on every claim: a replica
		// re-placed after a slot death must report to its new link's ledger.
		l.at.pt.ledger = sl.ledger
		sess, gen, conn := sl.current()

		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			// Hand the ticket back so accounting settles at teardown.
			d.parkForResume(l)
			return
		}
		// Replica exchanges share the worker bound safely because they
		// never hold it across their group barrier: an unready rendezvous
		// parks the attempt (errReplicaParked) instead of blocking.
		outcome, err := sess.RunAttempt(l.at)
		<-sem

		if err != nil {
			if errors.Is(err, errReplicaParked) {
				// The replica reached its rendezvous before the group was
				// complete; shelve it (no worker, no window slot) until the
				// comparison runs, and claim other work meanwhile.
				d.parkAtBarrier(l)
				continue
			}
			if errors.Is(err, ErrConnQuarantined) {
				d.parkForResume(l)
				sl.recover(gen, d, p, cfg, window)
				continue
			}
			if l.grp != nil && ctx.Err() != nil {
				// The barrier was released by cancellation, not by a fault of
				// this replica; park so accounting settles at teardown.
				d.parkForResume(l)
				return
			}
			// Terminal failure: the attempt never reaches an outcome, so
			// close its eval and byte accounting here.
			d.abandonAttempt(l.at)
			d.complete(l)
			d.fail(fmt.Errorf("grid: task %d: %w", l.task.ID, err))
			return
		}
		p.bytesSent.Add(outcome.BytesSent)
		p.bytesRecv.Add(outcome.BytesRecv)
		select {
		case stream.outcomes <- StreamedOutcome{Outcome: outcome, Conn: conn}:
		case <-ctx.Done():
		}
		d.complete(l)
	}
}
