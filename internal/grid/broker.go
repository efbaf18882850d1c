package grid

// The GRACE broker hub.
//
// Section 4 of the paper motivates NI-CBS with the GRACE deployment: a Grid
// Resource Broker sits between supervisor and participants, so the
// supervisor cannot open interactive challenge rounds. The first cut of
// this repo modeled that broker as a two-connection frame copier (one
// relay goroutine pair per supervisor↔participant link, no identities, no
// recovery). This file replaces it with a BrokerHub:
//
//   - Identity-routed multiplexing. Every link attached to the hub opens
//     with a msgHello handshake (wire.go): participant links register under
//     a worker identity (HelloWorker), and supervisor links are multiplexed
//     (OpenMux) — each route opened on one names the worker it wants, and
//     the hub binds the pair. One hub relays any number of
//     supervisor↔worker routes concurrently, and one supervisor link
//     carries any number of them.
//
//   - Resume-through-relay. Routing is by identity, not by physical link:
//     when a transport fault kills a route, a supervisor redial whose route
//     names the same worker is re-bound to that worker's freshly registered
//     link, so the msgResume machinery of PR 3/4 (mid-protocol resume,
//     verdict re-delivery) works end-to-end through the relay. Faulty
//     brokered verdicts are byte-identical to clean direct runs (pinned by
//     TestRunSimBrokeredFaultyMatchesClean).
//
//   - Relay-hop batching. Frames bound for the same downstream link are
//     re-coalesced at the hub: consecutive msgBatch frames queued behind a
//     slow downstream send are decoded and merged into one larger batch
//     frame, and supervisor-bound units of several routes share one mux
//     envelope, so a pipelined NI-CBS session pays the downstream link
//     delay once per burst instead of once per frame — the Goodrich
//     pipeline shape (arXiv:0906.1225) applied at the relay hop. Per-task
//     tagged byte accounting is preserved exactly (a tagged message's wire
//     size is independent of which frame carries it); only shared framing
//     overhead differs between the two hops.
//
//   - Fault transparency. A CRC-corrupt frame on a worker link quarantines
//     that route; one on a supervisor link, where no route tag survived,
//     quarantines that physical link and every route on it. Quarantine
//     closes the affected endpoints, so each peer observes a dead
//     connection and the session layer's quarantine/resume machinery takes
//     over, and it never kills the hub: other links keep relaying. A
//     supervisor that wants per-route fault isolation on its own leg opens
//     one route per mux.
//
// The hub is still protocol-oblivious where it matters: it never
// interprets task payloads and forwards frames it cannot re-batch
// untouched. It understands the hello handshake, the mux envelope and
// credit frames, and the msgBatch envelope.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/transport"
)

// ErrBrokerClosed is returned for operations on a closed hub.
var ErrBrokerClosed = errors.New("grid: broker hub closed")

// defaultBindTimeout bounds how long a supervisor-role attach waits for the
// named worker to register before the link is refused.
const defaultBindTimeout = 10 * time.Second

// brokerConfig collects NewBrokerHub options.
type brokerConfig struct {
	bindTimeout  time.Duration
	creditWindow int64
}

// BrokerOption configures NewBrokerHub.
type BrokerOption interface {
	applyBroker(*brokerConfig)
}

type bindTimeoutOption time.Duration

func (o bindTimeoutOption) applyBroker(c *brokerConfig) { c.bindTimeout = time.Duration(o) }

// WithBindTimeout bounds how long a route waits for its named worker to
// register, and how long any attached link may take to send its hello
// (default 10s for both). A timed-out handshake closes the link and a
// timed-out bind closes the route, which the peer's session layer treats
// like any other dead connection.
func WithBindTimeout(d time.Duration) BrokerOption { return bindTimeoutOption(d) }

// LinkOption configures both endpoints of a multiplexed hub link: it is
// accepted by NewBrokerHub and OpenMux, so a parameter both sides must
// agree on can be passed from one value.
type LinkOption interface {
	BrokerOption
	MuxOption
}

type routeCreditWindowOption int64

func (o routeCreditWindowOption) value() (int64, bool) {
	if o <= 0 {
		return 0, false
	}
	// The wire decoders reject grants and windows above maxCreditGrant, so
	// a ceiling beyond it could never be granted anyway.
	if o > maxCreditGrant {
		return maxCreditGrant, true
	}
	return int64(o), true
}

func (o routeCreditWindowOption) applyBroker(c *brokerConfig) {
	if v, ok := o.value(); ok {
		c.creditWindow = v
	}
}

func (o routeCreditWindowOption) applyMux(c *muxConfig) {
	if v, ok := o.value(); ok {
		c.creditWindow = v
	}
}

// WithRouteCreditWindow sets the per-route credit window CEILING of a
// multiplexed link, in dedicated-link-equivalent frame bytes (default
// 256 KiB). Flow control is credit-based in both directions: each
// receiver extends byte credit per route, the sender stops when its
// balance runs dry, and the receiver grants more as the route's consumer
// drains. The window itself is adaptive — it starts at the
// minRouteCreditWindowBytes floor (32 KiB, or the ceiling if smaller),
// grows with the route's observed drain rate up to this ceiling, and
// decays toward the floor when the route idles — so a slow or idle route
// bounds its own receiver memory near the floor instead of the whole
// link's, and a 1k-route hub holds far less than routes × ceiling. Both
// endpoints must use the same ceiling — pass the option to NewBrokerHub
// and to every OpenMux on that hub — because each side computes the
// other's initial credit from it. Values below 1 select the default.
func WithRouteCreditWindow(n int64) LinkOption { return routeCreditWindowOption(n) }

// RouteDirectionStats counts one direction of a worker's relayed traffic.
// Ingress is measured as frames arrive at the hub on the direction's source
// link; egress as frames leave it, after any relay-hop re-batching, so
// egress may carry the same tagged payload in fewer, larger frames. The
// supervisor-side measurements are denominated in inner frame sizes (the
// route's frames as they sit inside mux envelopes): ToWorker ingress and
// ToSupervisor egress count inner frames, while the worker-link side counts
// physical frames; the shared-envelope framing difference is carried by the
// hub's signed mux overhead ledgers instead. A supervisor entry that
// arrives after its worker ended the link is an orphan (OrphanedBytes),
// never ToWorker ingress as well. Corrupt frames are counted per
// worker only on the worker link (ToSupervisor); a corrupt supervisor-link
// frame cannot be attributed to a route and lands in MuxCorruptFrames.
type RouteDirectionStats struct {
	IngressMsgs, IngressBytes   int64
	EgressMsgs, EgressBytes     int64
	CorruptFrames, CorruptBytes int64
}

// RouteStats aggregates one worker identity's relay traffic across every
// route the hub ever bound for it (redials included). The counters
// reconcile exactly with the hub-side endpoint counters. On the worker
// side, per worker:
//
//	worker-facing endpoint bytes received ==
//	    WorkerHelloBytes + ToSupervisor ingress + ToSupervisor corrupt bytes
//	worker-facing endpoint bytes sent == ToWorker egress bytes
//
// On the supervisor side the per-worker counters cover the inner frames and
// the route open/close handshakes; the physical links' remaining bytes are
// the hub's link-level ledgers, summed over every supervisor link:
//
//	supervisor endpoint bytes received at the hub ==
//	    MuxHelloBytes + Σ SupervisorHelloBytes + Σ ToWorker ingress
//	    + MuxOverheadIngressBytes + OrphanedBytes + MuxCorruptBytes
//	    + ControlIngressBytes
//	supervisor endpoint bytes sent by the hub ==
//	    Σ ToSupervisor egress + MuxOverheadEgressBytes + ControlBytes
type RouteStats struct {
	// Worker is the identity the counters are keyed by.
	Worker string
	// Binds counts routes bound to this worker.
	Binds int64
	// WorkerHelloBytes counts the worker links' registration hellos;
	// SupervisorHelloBytes the route open/close hellos naming this worker
	// on supervisor links. The hub consumes both (never relayed).
	WorkerHelloBytes, SupervisorHelloBytes int64
	// CorruptFrames and CorruptBytes total the frames that failed the
	// transport CRC on this worker's links; each one quarantined its route.
	// Per-side counts live in the directions.
	CorruptFrames, CorruptBytes int64
	// ToWorker covers supervisor→participant relaying, ToSupervisor the
	// reverse direction.
	ToWorker, ToSupervisor RouteDirectionStats
	// ToWorkerGrantedBytes totals the credit the hub granted back to the
	// supervisor for this worker's ToWorker direction;
	// ToWorkerWindowBytes is the adaptive window target the latest grant
	// advertised. The grant ledger reconciles per live route as
	// initial window + granted == ToWorker ingress + outstanding.
	ToWorkerGrantedBytes, ToWorkerWindowBytes int64
	// ToSupervisorGrantedBytes totals the credit supervisors granted the
	// hub for this worker's ToSupervisor direction;
	// ToSupervisorWindowBytes is the peer's latest advertised window, and
	// ToSupervisorStalls counts the times a route was parked out of the
	// shared writer's ready ring for lack of supervisor credit — each park
	// is a slow consumer isolated instead of a link stalled.
	ToSupervisorGrantedBytes, ToSupervisorWindowBytes int64
	ToSupervisorStalls                                int64
}

// dirCounters is the mutable form of RouteDirectionStats.
type dirCounters struct {
	ingressMsgs, ingressBytes   atomic.Int64
	egressMsgs, egressBytes     atomic.Int64
	corruptFrames, corruptBytes atomic.Int64
}

func (d *dirCounters) snapshot() RouteDirectionStats {
	return RouteDirectionStats{
		IngressMsgs:   d.ingressMsgs.Load(),
		IngressBytes:  d.ingressBytes.Load(),
		EgressMsgs:    d.egressMsgs.Load(),
		EgressBytes:   d.egressBytes.Load(),
		CorruptFrames: d.corruptFrames.Load(),
		CorruptBytes:  d.corruptBytes.Load(),
	}
}

// workerCounters accumulates one worker identity's relay accounting across
// every route bound for it.
type workerCounters struct {
	binds                atomic.Int64
	workerHelloBytes     atomic.Int64
	supervisorHelloBytes atomic.Int64
	toWorker             dirCounters
	toSupervisor         dirCounters
	// Credit flow-control ledgers: cumulative grant bytes per direction,
	// latest advertised window per direction (gauges), and ready-ring parks
	// for lack of supervisor credit.
	toWorkerGranted atomic.Int64
	toWorkerWindow  atomic.Int64
	toSupGranted    atomic.Int64
	toSupWindow     atomic.Int64
	toSupStalls     atomic.Int64
}

// BrokerHub is the session-aware GRACE broker: an identity-routed relay
// multiplexing any number of supervisor↔worker routes, with relay-hop
// batching and per-route exact byte accounting. Attach links with Attach
// after their first frame names their role: HelloWorker registers a
// participant, OpenMux opens a supervisor link. A supervisor link carries
// any number of routes over one physical connection; the hub runs one
// reader and one writer goroutine per supervisor link, never per route.
type BrokerHub struct {
	cfg brokerConfig

	relayedMsgs  atomic.Int64
	relayedBytes atomic.Int64
	// rejected counts links (and their received bytes) whose handshake the
	// hub refused: corrupt or malformed hellos, unknown frame types.
	rejectedLinks atomic.Int64
	rejectedBytes atomic.Int64
	// evicted counts registered-but-unbound worker links whose monitor
	// observed a read error before any supervisor bound them, and the bytes
	// that died with them.
	evictedLinks atomic.Int64
	evictedBytes atomic.Int64

	// Supervisor-link ledgers. Data relayed on supervisor links is
	// attributed to per-worker counters in inner frame sizes; everything
	// else about the shared physical link lands here so the endpoint byte
	// counters still reconcile exactly (see RouteStats).
	muxLinks      atomic.Int64 // supervisor links ever attached
	routesOpened  atomic.Int64 // routes ever opened on supervisor links
	muxHelloBytes atomic.Int64 // mux-attach handshake frames consumed
	// ctrlMsgs/ctrlBytes count hub-originated control frames on muxed
	// links: credit grants and close notices. Never part of RelayedBytes.
	ctrlMsgs  atomic.Int64
	ctrlBytes atomic.Int64
	// ctrlMsgsIn/ctrlBytesIn are the ingress mirror: supervisor-originated
	// credit grants arriving on muxed links (the hub→supervisor direction's
	// flow control). Never part of any route's relayed traffic.
	ctrlMsgsIn  atomic.Int64
	ctrlBytesIn atomic.Int64
	// muxOverheadIn/muxOverheadOut are signed envelope ledgers: physical
	// frame bytes minus the inner frame bytes they carried. Egress overhead
	// goes negative when cross-worker coalescing saves more in per-frame
	// headers than the route tags cost.
	muxOverheadIn  atomic.Int64
	muxOverheadOut atomic.Int64
	// orphanFrames/orphanBytes count routed entries addressed to routes the
	// hub does not know (already closed, never opened, or refused), dropped
	// on the floor; bytes are inner frame sizes.
	orphanFrames atomic.Int64
	orphanBytes  atomic.Int64
	// muxCorrupt counts CRC-corrupt frames arriving on a muxed supervisor
	// link. A corrupt frame on a shared link cannot be attributed to any
	// single route, so it quarantines the whole physical link (every route
	// on it) and is counted here instead of per worker.
	muxCorruptFrames atomic.Int64
	muxCorruptBytes  atomic.Int64

	mu           sync.Mutex
	closed       bool
	available    map[string]transport.Conn
	links        map[*supLink]struct{}
	pendingBinds map[string][]*hubRoute
	counters     map[string]*workerCounters
	pumps        sync.WaitGroup
}

// NewBrokerHub creates an empty hub.
func NewBrokerHub(opts ...BrokerOption) *BrokerHub {
	cfg := brokerConfig{bindTimeout: defaultBindTimeout, creditWindow: defaultCreditWindowBytes}
	for _, opt := range opts {
		opt.applyBroker(&cfg)
	}
	return &BrokerHub{
		cfg:          cfg,
		available:    make(map[string]transport.Conn),
		links:        make(map[*supLink]struct{}),
		pendingBinds: make(map[string][]*hubRoute),
		counters:     make(map[string]*workerCounters),
	}
}

// HelloWorker announces a participant identity on a link freshly dialed to
// a hub: send it on the participant's endpoint before Serve, then hand the
// hub's endpoint to Attach.
func HelloWorker(conn transport.Conn, worker string) error {
	return sendHello(conn, helloMsg{Role: helloRoleWorker, Worker: worker})
}

func sendHello(conn transport.Conn, m helloMsg) error {
	if conn == nil {
		return fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	if m.Worker == "" {
		return fmt.Errorf("%w: empty worker identity", ErrBadConfig)
	}
	if len(m.Worker) > maxWorkerNameLen {
		return fmt.Errorf("%w: worker identity of %d bytes (max %d)",
			ErrBadConfig, len(m.Worker), maxWorkerNameLen)
	}
	return conn.Send(transport.Message{Type: msgHello, Payload: encodeHello(m)})
}

// RelayedMessages reports how many frames the hub has forwarded in total
// (egress, both directions, all routes, after any re-batching).
func (h *BrokerHub) RelayedMessages() int64 { return h.relayedMsgs.Load() }

// RelayedBytes reports the forwarded traffic volume (egress frame bytes,
// headers included). Together with ControlBytes it equals the sum of the
// hub-side endpoints' sent-byte counters exactly.
func (h *BrokerHub) RelayedBytes() int64 { return h.relayedBytes.Load() }

// RejectedHandshakes reports how many attached links the hub refused at the
// hello (corrupt or malformed handshake).
func (h *BrokerHub) RejectedHandshakes() int64 { return h.rejectedLinks.Load() }

// RejectedHandshakeBytes reports the bytes received on refused links.
func (h *BrokerHub) RejectedHandshakeBytes() int64 { return h.rejectedBytes.Load() }

// EvictedWorkerLinks reports registered worker links evicted because their
// monitor saw a read error before any supervisor bound them.
func (h *BrokerHub) EvictedWorkerLinks() int64 { return h.evictedLinks.Load() }

// EvictedWorkerBytes reports bytes received on evicted worker links.
func (h *BrokerHub) EvictedWorkerBytes() int64 { return h.evictedBytes.Load() }

// MuxLinks reports how many multiplexed supervisor links ever attached.
func (h *BrokerHub) MuxLinks() int64 { return h.muxLinks.Load() }

// RoutesOpened reports how many routes were ever opened on muxed links.
func (h *BrokerHub) RoutesOpened() int64 { return h.routesOpened.Load() }

// ControlMessages reports hub-originated control frames on muxed links
// (credit grants and close notices).
func (h *BrokerHub) ControlMessages() int64 { return h.ctrlMsgs.Load() }

// ControlBytes reports the bytes of hub-originated control frames. Control
// traffic is never part of RelayedBytes.
func (h *BrokerHub) ControlBytes() int64 { return h.ctrlBytes.Load() }

// ControlIngressMessages reports supervisor-originated control frames
// (credit grants) received on muxed links.
func (h *BrokerHub) ControlIngressMessages() int64 { return h.ctrlMsgsIn.Load() }

// ControlIngressBytes reports the physical bytes of received control
// frames; part of the muxed-link ingress identity, never of any route's
// relayed traffic.
func (h *BrokerHub) ControlIngressBytes() int64 { return h.ctrlBytesIn.Load() }

// CreditWindowBytes sums every live muxed route's current adaptive
// toWorker window — the hub's worst-case queued-byte exposure to
// supervisor traffic. With adaptive sizing this sits near
// routes × minRouteCreditWindowBytes for mostly-idle fan-out, far below
// the static routes × WithRouteCreditWindow bound.
func (h *BrokerHub) CreditWindowBytes() int64 {
	h.mu.Lock()
	links := make([]*supLink, 0, len(h.links))
	for l := range h.links {
		links = append(links, l)
	}
	h.mu.Unlock()
	var sum int64
	for _, l := range links {
		l.mu.Lock()
		for _, r := range l.routes {
			if r.state != routeDead {
				sum += r.toWorkerCredit.win
			}
		}
		l.mu.Unlock()
	}
	return sum
}

// MuxOverheadIngressBytes reports the signed difference between physical
// bytes received on muxed links and the inner-frame plus handshake bytes
// they carried.
func (h *BrokerHub) MuxOverheadIngressBytes() int64 { return h.muxOverheadIn.Load() }

// MuxOverheadEgressBytes reports the signed difference between physical
// data bytes sent on muxed links and the inner-frame bytes they carried;
// negative when cross-worker coalescing saves more than route tags cost.
func (h *BrokerHub) MuxOverheadEgressBytes() int64 { return h.muxOverheadOut.Load() }

// OrphanedFrames reports routed entries dropped because their route was
// unknown or already finished.
func (h *BrokerHub) OrphanedFrames() int64 { return h.orphanFrames.Load() }

// OrphanedBytes reports the inner-frame bytes of orphaned routed entries.
func (h *BrokerHub) OrphanedBytes() int64 { return h.orphanBytes.Load() }

// MuxCorruptFrames reports CRC-corrupt frames on muxed supervisor links;
// each one quarantined its whole physical link.
func (h *BrokerHub) MuxCorruptFrames() int64 { return h.muxCorruptFrames.Load() }

// MuxCorruptBytes reports the received bytes of mux-link corrupt frames.
func (h *BrokerHub) MuxCorruptBytes() int64 { return h.muxCorruptBytes.Load() }

// Workers lists every worker identity the hub has seen a handshake for.
func (h *BrokerHub) Workers() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.counters))
	for name := range h.counters {
		names = append(names, name)
	}
	return names
}

// WorkerStats snapshots one worker identity's cumulative relay accounting.
func (h *BrokerHub) WorkerStats(worker string) (RouteStats, bool) {
	h.mu.Lock()
	wc := h.counters[worker]
	h.mu.Unlock()
	if wc == nil {
		return RouteStats{}, false
	}
	st := RouteStats{
		Worker:                   worker,
		Binds:                    wc.binds.Load(),
		WorkerHelloBytes:         wc.workerHelloBytes.Load(),
		SupervisorHelloBytes:     wc.supervisorHelloBytes.Load(),
		ToWorker:                 wc.toWorker.snapshot(),
		ToSupervisor:             wc.toSupervisor.snapshot(),
		ToWorkerGrantedBytes:     wc.toWorkerGranted.Load(),
		ToWorkerWindowBytes:      wc.toWorkerWindow.Load(),
		ToSupervisorGrantedBytes: wc.toSupGranted.Load(),
		ToSupervisorWindowBytes:  wc.toSupWindow.Load(),
		ToSupervisorStalls:       wc.toSupStalls.Load(),
	}
	st.CorruptFrames = st.ToWorker.CorruptFrames + st.ToSupervisor.CorruptFrames
	st.CorruptBytes = st.ToWorker.CorruptBytes + st.ToSupervisor.CorruptBytes
	return st, true
}

// maxBrokerIdentities caps how many distinct worker identities one hub
// tracks (registry keys and per-worker counters). Identities are never
// evicted — their counters are the accounting record — so a dialer cycling
// fresh names must not grow the hub without bound: handshakes naming a new
// identity past the cap are refused. A variable so tests can exercise the
// bound.
var maxBrokerIdentities = 1 << 16

// countersFor returns the worker's cumulative counters, creating them on
// first sight, or nil when the identity cap forbids tracking a new name.
func (h *BrokerHub) countersFor(worker string) *workerCounters {
	h.mu.Lock()
	defer h.mu.Unlock()
	wc := h.counters[worker]
	if wc == nil {
		if len(h.counters) >= maxBrokerIdentities {
			return nil
		}
		wc = &workerCounters{}
		h.counters[worker] = wc
	}
	return wc
}

// Attach hands one freshly dialed link to the hub. The link's first frame
// must be a msgHello: worker links (HelloWorker) are registered under their
// identity and served once a route binds them; supervisor links (OpenMux)
// start their reader and writer, and each route opened on them is bound to
// its named worker's registration when one arrives, up to the bind timeout.
// Attach blocks only to read the hello frame (itself bounded by the bind
// timeout), never for a bind or a route's lifetime: an accept loop may call
// it synchronously per connection. A link whose handshake is refused is
// closed, which is how the failure surfaces to the dialing peer.
//
//gridlint:credit accept boundary: hello and rejected-link bytes are only observable here
func (h *BrokerHub) Attach(conn transport.Conn) error {
	if conn == nil {
		return fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	// The handshake gets a deadline: a peer that connects and never sends
	// its hello must not wedge a synchronous accept loop, so the link is
	// closed — unblocking Recv — when the bind timeout passes without one.
	watchdog := time.AfterFunc(h.cfg.bindTimeout, func() { _ = conn.Close() })
	before := conn.Stats().BytesRecv()
	msg, err := conn.Recv()
	stopped := watchdog.Stop()
	arrived := conn.Stats().BytesRecv() - before
	reject := func(err error) error {
		h.rejectedLinks.Add(1)
		h.rejectedBytes.Add(arrived)
		_ = conn.Close()
		return err
	}
	if err != nil {
		// Classify before returning: a dropped or timed-out link is a
		// quarantine-class fault to the accept loop, not a config error.
		return reject(quarantineWrap(fmt.Errorf("grid: broker handshake: %w", err)))
	}
	if !stopped {
		// The watchdog already fired: the link is closed (or about to be),
		// so a hello that squeaked in at the deadline must not register a
		// dead link as a healthy one.
		return reject(fmt.Errorf("%w: broker handshake timed out after %v", ErrBadConfig, h.cfg.bindTimeout))
	}
	if msg.Type != msgHello {
		return reject(fmt.Errorf("%w: broker link opened with frame type %d, want hello",
			ErrUnexpectedMessage, msg.Type))
	}
	hello, err := decodeHello(msg.Payload)
	if err != nil {
		return reject(err)
	}
	switch hello.Role {
	case helloRoleWorker:
		wc := h.countersFor(hello.Worker)
		if wc == nil {
			return reject(fmt.Errorf("%w: hub is at its %d-identity capacity; refusing new worker %q",
				ErrBadConfig, maxBrokerIdentities, hello.Worker))
		}
		wc.workerHelloBytes.Add(arrived)
		return h.registerWorker(hello.Worker, conn)
	case helloRoleMux:
		// Mux labels name a supervisor, not a worker: they get link-level
		// accounting, not a slot in the per-worker identity registry.
		h.muxHelloBytes.Add(arrived)
		h.muxLinks.Add(1)
		return h.attachSupervisorLink(conn)
	default:
		// Open/close hellos are only meaningful on an attached muxed link.
		return reject(fmt.Errorf("%w: hello role %d cannot open a link",
			ErrUnexpectedMessage, hello.Role))
	}
}

// registerWorker makes the link the worker's available (unbound) endpoint,
// replacing — and closing — any stale unbound registration under the same
// identity (a redialing harness re-registers before the hub necessarily
// noticed the old link die). Every registration gets a monitor goroutine so
// a link that dies while parked is evicted eagerly instead of being handed
// to the next supervisor as a healthy worker.
func (h *BrokerHub) registerWorker(worker string, conn transport.Conn) error {
	v := &vettedWorkerConn{Conn: conn, result: make(chan vetResult, 1)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return ErrBrokerClosed
	}
	stale := h.available[worker]
	h.available[worker] = v
	h.pumps.Add(1)
	h.mu.Unlock()
	go h.monitorWorker(worker, v)
	if stale != nil {
		_ = stale.Close()
	}
	h.matchPending(worker)
	return nil
}

// vetResult is the outcome of a monitor's single Recv, handed to the
// route's first read once the link is bound.
type vetResult struct {
	msg transport.Message
	err error
}

// vettedWorkerConn wraps a registered worker link so the hub can watch it
// while it waits unbound. The monitor goroutine owns the link's first Recv;
// the route's first Recv consumes the monitor's result instead of racing it
// with a second concurrent Recv, and later Recvs go straight through.
type vettedWorkerConn struct {
	transport.Conn
	result chan vetResult

	mu      sync.Mutex
	drained bool  // the monitor's result has been claimed by a Recv
	early   bool  // the last Recv returned the monitor's buffered result
	pending int64 // connection-counter bytes the monitor's Recv consumed
}

func (v *vettedWorkerConn) Recv() (transport.Message, error) {
	v.mu.Lock()
	first := !v.drained
	v.drained = true
	v.mu.Unlock()
	if first {
		res := <-v.result
		v.mu.Lock()
		v.early = true
		v.mu.Unlock()
		return res.msg, res.err
	}
	//gridlint:ignore errclassify transport adapter: errors pass through verbatim; the relay pump classifies them
	return v.Conn.Recv()
}

// takeEarly reports whether the last Recv returned the monitor's buffered
// result, and the connection-counter bytes that result consumed. The pump
// uses it to attribute bytes that arrived before its own counter snapshot.
func (v *vettedWorkerConn) takeEarly() (int64, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.early {
		return 0, false
	}
	v.early = false
	return v.pending, true
}

// monitorWorker performs one Recv on a freshly registered link. A read
// error while the link is still unbound evicts it — a supervisor arriving
// later waits for a live registration instead of binding a corpse — and a
// result on a link that was bound (or replaced) meanwhile is delivered to
// the route through the vetted wrapper. Joined via h.pumps so Close waits
// for monitors too.
//
//gridlint:credit eviction is the last observation point for a dead parked link's bytes
func (h *BrokerHub) monitorWorker(worker string, v *vettedWorkerConn) {
	defer h.pumps.Done()
	before := v.Conn.Stats().BytesRecv()
	msg, err := v.Conn.Recv()
	delta := v.Conn.Stats().BytesRecv() - before
	v.mu.Lock()
	v.pending = delta
	v.mu.Unlock()
	if err != nil {
		h.mu.Lock()
		if !h.closed && h.available[worker] == v {
			delete(h.available, worker)
			h.mu.Unlock()
			_ = v.Conn.Close()
			h.evictedLinks.Add(1)
			h.evictedBytes.Add(delta)
			return
		}
		h.mu.Unlock()
	}
	v.result <- vetResult{msg: msg, err: err}
}

// defaultCreditWindowBytes is the per-route receive window on a muxed link
// when WithRouteCreditWindow is not given: the supervisor may have this
// many unacknowledged bytes (inner frame sizes) queued at the hub before
// it must wait for a credit grant, so one slow worker bounds its own
// route's hub memory instead of the whole link's.
const defaultCreditWindowBytes int64 = 256 << 10

// toWorkerQueueBytes bounds the worker→supervisor queue of any route; a
// full queue blocks the worker-link reader, which is the natural
// backpressure toward the (clean, LAN-side) participant leg.
var toWorkerQueueBytes int64 = 1 << 20

// muxInnerPayloadCap bounds a single inner frame relayed through a mux
// envelope so the envelope itself stays under transport.MaxFrameBytes.
const muxInnerPayloadCap = int64(transport.MaxFrameBytes) - 64

// Route lifecycle states, guarded by the owning link's mutex.
const (
	routePending = iota // waiting for the named worker to register
	routeActive         // bound to a worker link, relaying
	routeDead           // torn down; late entries are orphans
)

// frameQ is one direction's frame queue, guarded by the owning link's
// mutex. closed means no more puts arrive but queued frames still drain
// (clean-close semantics); discard drops queued frames and refuses puts
// (fault semantics).
type frameQ struct {
	frames  []transport.Message
	bytes   int64
	closed  bool
	discard bool
}

//gridlint:credit queue-occupancy ledger: put is the single enqueue site
func (q *frameQ) put(m transport.Message) bool {
	if q.closed || q.discard {
		return false
	}
	q.frames = append(q.frames, m)
	q.bytes += m.FrameSize()
	return true
}

//gridlint:credit queue-occupancy ledger: pop is the single dequeue site
func (q *frameQ) pop() (transport.Message, bool) {
	if len(q.frames) == 0 || q.discard {
		return transport.Message{}, false
	}
	m := q.frames[0]
	q.frames[0] = transport.Message{}
	q.frames = q.frames[1:]
	q.bytes -= m.FrameSize()
	if len(q.frames) == 0 {
		q.frames = nil
	}
	return m, true
}

func (q *frameQ) peek() (transport.Message, bool) {
	if len(q.frames) == 0 || q.discard {
		return transport.Message{}, false
	}
	return q.frames[0], true
}

func (q *frameQ) empty() bool { return len(q.frames) == 0 || q.discard }

func (q *frameQ) drop() {
	q.frames = nil
	q.bytes = 0
	q.discard = true
}

// supLink is one physical supervisor↔hub connection, carrying any number
// of routes inside msgRouted envelopes. Each link runs exactly two
// goroutines — readLoop and writeLoop — regardless of route count.
type supLink struct {
	hub  *BrokerHub
	conn transport.Conn

	mu   sync.Mutex
	cond *sync.Cond // wakes writeLoop: data queued, control queued, stop
	// routes holds live routes by ID.
	routes map[uint64]*hubRoute
	// ready is the round-robin drain order: routes with queued
	// supervisor-bound frames, each present at most once (inReady).
	ready []*hubRoute
	// ctrl queues hub-originated control frames (credits, close notices),
	// sent ahead of data.
	ctrl []transport.Message
	// failed: the link is quarantined — all queues dropped, no more sends.
	// stopWriter: writeLoop exits once set (set by failure and clean
	// shutdown).
	failed     bool
	stopWriter bool
}

// hubRoute is one supervisor↔worker route on a supLink. All mutable state
// is guarded by the link's mutex; the per-route cond wakes the route's
// worker-side writer and any capacity waiters.
type hubRoute struct {
	link   *supLink
	id     uint64
	worker string
	wc     *workerCounters

	wcond *sync.Cond // shares the link mutex
	down  transport.Conn
	vet   *vettedWorkerConn

	toWorker frameQ // supervisor → worker
	toSup    frameQ // worker → supervisor

	state     int
	bindTimer *time.Timer
	inReady   bool
	// noticeDue/noticeSent sequence the hub→supervisor close notice: due
	// once the worker side ended while the supervisor side is still alive,
	// sent after toSup drains.
	noticeDue  bool
	noticeSent bool
	// toWorkerCredit is the receiver-side ledger of the supervisor→worker
	// direction: the hub extends credit to the supervisor and grants more
	// as the worker-side writer drains toWorker, sizing the window
	// adaptively from the observed drain rate.
	toWorkerCredit creditLedger
	// supCredit is the hub's send budget on the worker→supervisor
	// direction, granted by the SupervisorMux as the route's consumer
	// drains its inbox; supWindow mirrors the peer's advertised window.
	supCredit int64
	supWindow int64
	// supStalled marks the route parked out of the ready ring for lack of
	// supervisor credit; re-entered when the next grant arrives.
	supStalled bool
	// loops counts the route's live worker-side goroutines; the last one to
	// exit removes the route from the link's maps.
	loops int
}

// attachSupervisorLink starts the link loops for a freshly helloed
// supervisor connection; routes arrive later as open hellos.
func (h *BrokerHub) attachSupervisorLink(conn transport.Conn) error {
	l := &supLink{hub: h, conn: conn, routes: make(map[uint64]*hubRoute)}
	l.cond = sync.NewCond(&l.mu)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return ErrBrokerClosed
	}
	h.links[l] = struct{}{}
	h.pumps.Add(2)
	h.mu.Unlock()
	go l.readLoop()
	go l.writeLoop()
	return nil
}

// newRouteLocked builds a pending route (callers insert it into l.routes).
// Both credit directions start at the adaptive floor: the hub extends
// initialCreditWindow to the supervisor (toWorkerCredit) and assumes the
// mux extended the same to it (supCredit) — which holds because both
// endpoints must be configured with the same ceiling.
func (l *supLink) newRouteLocked(id uint64, worker string, wc *workerCounters) *hubRoute {
	r := &hubRoute{link: l, id: id, worker: worker, wc: wc, state: routePending}
	r.wcond = sync.NewCond(&l.mu)
	r.toWorkerCredit = newCreditLedger(l.hub.cfg.creditWindow)
	r.supCredit = initialCreditWindow(l.hub.cfg.creditWindow)
	r.supWindow = r.supCredit
	return r
}

// scheduleBind claims the route's worker if one is registered, or parks the
// route in pendingBinds with a timeout; binds are event-driven (completed
// by registerWorker), so no goroutine waits on them.
func (h *BrokerHub) scheduleBind(r *hubRoute) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		r.fail(false)
		return
	}
	if conn, ok := h.available[r.worker]; ok {
		delete(h.available, r.worker)
		h.mu.Unlock()
		if !r.tryBind(conn) {
			h.returnWorker(r.worker, conn)
		}
		return
	}
	h.pendingBinds[r.worker] = append(h.pendingBinds[r.worker], r)
	h.mu.Unlock()
	l := r.link
	l.mu.Lock()
	if r.state == routePending {
		r.bindTimer = time.AfterFunc(h.cfg.bindTimeout, func() { h.bindExpired(r) })
	}
	l.mu.Unlock()
}

// matchPending hands a fresh registration to routes waiting on the
// identity, oldest first, until one accepts it or none remain.
func (h *BrokerHub) matchPending(worker string) {
	for {
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return
		}
		pend := h.pendingBinds[worker]
		conn, ok := h.available[worker]
		if len(pend) == 0 || !ok {
			h.mu.Unlock()
			return
		}
		r := pend[0]
		if len(pend) == 1 {
			delete(h.pendingBinds, worker)
		} else {
			h.pendingBinds[worker] = pend[1:]
		}
		delete(h.available, worker)
		h.mu.Unlock()
		if r.tryBind(conn) {
			return
		}
		// The route died while parked; put the registration back (its
		// monitor is still watching it) and try the next waiter.
		if !h.returnWorker(worker, conn) {
			return
		}
	}
}

// returnWorker re-registers a claimed-but-unused worker link. Reports false
// when the link could not be returned (hub closed or a newer registration
// took the slot), in which case the conn is closed.
func (h *BrokerHub) returnWorker(worker string, conn transport.Conn) bool {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return false
	}
	if _, exists := h.available[worker]; exists {
		h.mu.Unlock()
		_ = conn.Close()
		return false
	}
	h.available[worker] = conn
	h.mu.Unlock()
	return true
}

// bindExpired is the pending-bind watchdog: if the route is still parked
// when the bind timeout fires, it is failed exactly like a refused bind.
// Presence in pendingBinds is the claim arbiter — if matchPending already
// popped the route, the timer is a no-op. The supervisor side of the link
// is alive and well — only the bind expired — so the route owes its
// supervisor the close notice that tells its session the route is dead.
func (h *BrokerHub) bindExpired(r *hubRoute) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	pend := h.pendingBinds[r.worker]
	found := false
	for i, cand := range pend {
		if cand == r {
			h.pendingBinds[r.worker] = append(pend[:i:i], pend[i+1:]...)
			if len(h.pendingBinds[r.worker]) == 0 {
				delete(h.pendingBinds, r.worker)
			}
			found = true
			break
		}
	}
	h.mu.Unlock()
	if found {
		r.fail(true)
	}
}

// tryBind binds a claimed worker link to the route and starts the route's
// worker-side loops. Reports false if the route is no longer pending.
//
//gridlint:credit a route starting is the bind event the binds counter measures
func (r *hubRoute) tryBind(conn transport.Conn) bool {
	l := r.link
	h := l.hub
	// The pump reservation must be ordered against Close: reserving under
	// h.mu while the hub is open guarantees Close's Wait observes it.
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	h.pumps.Add(2)
	h.mu.Unlock()
	l.mu.Lock()
	if r.state != routePending {
		l.mu.Unlock()
		h.pumps.Done()
		h.pumps.Done()
		return false
	}
	r.state = routeActive
	r.down = conn
	r.vet, _ = conn.(*vettedWorkerConn)
	if r.bindTimer != nil {
		r.bindTimer.Stop()
		r.bindTimer = nil
	}
	r.loops = 2
	r.wcond.Broadcast()
	l.mu.Unlock()
	if r.wc != nil {
		r.wc.binds.Add(1)
	}
	go r.workerReadLoop()
	go r.workerWriteLoop()
	return true
}

// fail quarantines one route: both queues dropped, the worker link closed,
// and a close notice queued for the supervisor (supAlive). The hub, the
// supervisor link and every other route keep running.
func (r *hubRoute) fail(supAlive bool) {
	l := r.link
	l.mu.Lock()
	if r.state == routeDead {
		l.mu.Unlock()
		return
	}
	down := r.down
	r.teardownLocked()
	if supAlive && !r.noticeSent && !l.failed && !l.stopWriter {
		l.queueNoticeLocked(r)
	}
	if r.loops == 0 {
		delete(l.routes, r.id)
	}
	l.mu.Unlock()
	if down != nil {
		_ = down.Close()
	}
}

// teardownLocked marks the route dead and wakes everything parked on it.
func (r *hubRoute) teardownLocked() {
	r.state = routeDead
	r.toWorker.drop()
	r.toSup.drop()
	if r.bindTimer != nil {
		r.bindTimer.Stop()
		r.bindTimer = nil
	}
	r.wcond.Broadcast()
	r.link.cond.Broadcast()
}

// queueNoticeLocked queues the hub→supervisor close notice for a route and
// finalizes the route: everything the worker sent has been relayed, so from
// here on the route's ID is retired and late entries addressed to it are
// orphans.
func (l *supLink) queueNoticeLocked(r *hubRoute) {
	r.noticeSent = true
	r.noticeDue = false
	l.ctrl = append(l.ctrl, transport.Message{
		Type:    msgHello,
		Payload: encodeHello(helloMsg{Role: helloRoleClose, Worker: r.worker, Route: r.id}),
	})
	if r.state != routeDead {
		r.teardownLocked()
	}
	if r.loops == 0 {
		delete(l.routes, r.id)
	}
	l.cond.Broadcast()
}

// loopDone retires one worker-side goroutine; the last one out removes a
// dead route from the link's map so late envelope entries become orphans.
func (r *hubRoute) loopDone() {
	l := r.link
	l.mu.Lock()
	r.loops--
	if r.loops == 0 && r.state == routeDead {
		delete(l.routes, r.id)
	}
	l.mu.Unlock()
	l.hub.pumps.Done()
}

// fail quarantines the whole physical link: every route is torn down and
// every endpoint closed. Links land here for faults that cannot be
// attributed to a single route — a corrupt frame on the shared link, a
// protocol violation, or a dead physical connection.
func (l *supLink) fail() {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return
	}
	l.failed = true
	l.stopWriter = true
	var downs []transport.Conn
	dead := make([]*hubRoute, 0, len(l.routes))
	for id, r := range l.routes {
		if r.down != nil {
			downs = append(downs, r.down)
		}
		dead = append(dead, r)
		r.teardownLocked()
		if r.loops == 0 {
			delete(l.routes, id)
		}
	}
	l.ready = nil
	l.ctrl = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range downs {
		_ = c.Close()
	}
	_ = l.conn.Close()
	l.hub.unpark(dead)
}

// cleanShutdown handles the supervisor endpoint closing the physical link
// cleanly: every route drains what the hub already accepted toward its
// worker (matching the direct transport's drain-after-close delivery),
// while the supervisor-bound direction is discarded — the peer is gone.
func (l *supLink) cleanShutdown() {
	l.mu.Lock()
	if l.failed {
		l.mu.Unlock()
		return
	}
	l.stopWriter = true
	dead := make([]*hubRoute, 0, len(l.routes))
	for id, r := range l.routes {
		switch r.state {
		case routePending:
			dead = append(dead, r)
			r.teardownLocked()
			if r.loops == 0 {
				delete(l.routes, id)
			}
		case routeActive:
			r.toWorker.closed = true
			r.toSup.drop()
			r.wcond.Broadcast()
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	_ = l.conn.Close()
	l.hub.unpark(dead)
}

// unpark removes failed routes from the pending-bind registry so a later
// registration is not handed to a corpse first.
func (h *BrokerHub) unpark(routes []*hubRoute) {
	if len(routes) == 0 {
		return
	}
	stale := make(map[*hubRoute]struct{}, len(routes))
	for _, r := range routes {
		stale[r] = struct{}{}
	}
	h.mu.Lock()
	for worker, pend := range h.pendingBinds {
		kept := pend[:0]
		for _, r := range pend {
			if _, dead := stale[r]; !dead {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(h.pendingBinds, worker)
		} else {
			h.pendingBinds[worker] = kept
		}
	}
	h.mu.Unlock()
}

// dropLink forgets a finished link.
func (h *BrokerHub) dropLink(l *supLink) {
	h.mu.Lock()
	delete(h.links, l)
	h.mu.Unlock()
}

// readLoop is the physical link's only reader: it ingests every frame the
// supervisor endpoint sends — mux envelopes, open/close hellos and credit
// grants — and parks frames on per-route queues. It never blocks on a
// route's queue (credits bound those), so one slow worker cannot
// head-of-line-block the link.
//
//gridlint:credit relay ingress, handshake, orphan, and corrupt-frame bytes are credited as they leave the source link
func (l *supLink) readLoop() {
	h := l.hub
	defer func() {
		h.dropLink(l)
		h.pumps.Done()
	}()
	for {
		before := l.conn.Stats().BytesRecv()
		msg, err := l.conn.Recv()
		arrived := l.conn.Stats().BytesRecv() - before
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, transport.ErrClosed):
				l.cleanShutdown()
			case errors.Is(err, transport.ErrFrameCorrupt):
				// Unattributable link damage: no route tag survived, so the
				// whole physical link is quarantined.
				h.muxCorruptFrames.Add(1)
				h.muxCorruptBytes.Add(arrived)
				l.fail()
			default:
				l.fail()
			}
			return
		}
		switch msg.Type {
		case msgRouted:
			if !l.ingestEnvelope(msg, arrived) {
				return
			}
		case msgHello:
			if !l.handleHello(msg, arrived) {
				return
			}
		case msgCredit:
			if !l.applyRouteGrant(msg, arrived) {
				return
			}
		default:
			// Raw data frames are not valid on a supervisor link.
			l.fail()
			return
		}
	}
}

// applyRouteGrant ingests a supervisor→hub credit grant: the mux returns
// credit as a route's consumer drains its inbox, and the hub spends it in
// gatherEnvelopeLocked. A stalled route re-enters the ready ring here.
// Reports false when the grant was malformed or overflowing and the link
// failed.
//
//gridlint:credit control ingress and per-route grant ledgers are only observable at the link reader
func (l *supLink) applyRouteGrant(msg transport.Message, arrived int64) bool {
	h := l.hub
	c, err := decodeCredit(msg.Payload)
	if err != nil {
		h.muxOverheadIn.Add(arrived)
		l.fail()
		return false
	}
	h.ctrlMsgsIn.Add(1)
	h.ctrlBytesIn.Add(arrived)
	l.mu.Lock()
	r := l.routes[c.Route]
	if r == nil || r.state == routeDead {
		// Grants race close notices; a grant for a finished route is stale,
		// not hostile.
		l.mu.Unlock()
		return true
	}
	r.supCredit += int64(c.Bytes)
	r.supWindow = int64(c.Window)
	if r.supCredit > maxCreditGrant {
		// More credit than any honest window can extend: the peer is
		// inflating the hub's send budget, likely probing for overflow.
		l.mu.Unlock()
		l.fail()
		return false
	}
	if r.wc != nil {
		r.wc.toSupGranted.Add(int64(c.Bytes))
		r.wc.toSupWindow.Store(int64(c.Window))
	}
	if r.supStalled {
		r.supStalled = false
		if !r.toSup.empty() {
			l.enqueueReadyLocked(r)
		}
	}
	l.mu.Unlock()
	return true
}

// ingestEnvelope distributes a mux envelope's entries onto route queues.
// Reports false when the envelope was malformed and the link failed.
//
//gridlint:credit envelope ingress is attributed inner-frame-exact as it arrives
func (l *supLink) ingestEnvelope(msg transport.Message, arrived int64) bool {
	h := l.hub
	entries, err := decodeRouted(msg.Payload)
	if err != nil {
		// The frame passed the transport CRC, so this is a peer protocol
		// violation, not line noise; the link is done either way.
		h.muxOverheadIn.Add(arrived)
		l.fail()
		return false
	}
	transport.RecyclePayload(msg.Payload)
	var inner int64
	l.mu.Lock()
	for _, e := range entries {
		size := e.innerFrameSize()
		inner += size
		r := l.routes[e.Route]
		if r == nil || r.state == routeDead {
			h.orphanFrames.Add(1)
			h.orphanBytes.Add(size)
			continue
		}
		if !r.toWorkerCredit.arrive(size) {
			// The peer is ignoring the credit protocol; that is a link-level
			// violation (the shared reader must never block on one route).
			l.mu.Unlock()
			l.fail()
			return false
		}
		// An entry is ToWorker ingress only once queued: one that races the
		// worker ending its link (the route still draining toward the
		// supervisor) is an orphan instead, never both.
		if r.toWorker.put(transport.Message{Type: e.Type, Payload: e.Payload}) {
			if r.wc != nil {
				r.wc.toWorker.ingressMsgs.Add(1)
				r.wc.toWorker.ingressBytes.Add(size)
			}
			r.wcond.Broadcast()
		} else {
			h.orphanFrames.Add(1)
			h.orphanBytes.Add(size)
		}
	}
	l.mu.Unlock()
	h.muxOverheadIn.Add(arrived - inner)
	return true
}

// handleHello processes an open or close hello on a supervisor link. Reports
// false when the hello was invalid and the link failed.
//
//gridlint:credit route handshake bytes are only observable at the link reader
func (l *supLink) handleHello(msg transport.Message, arrived int64) bool {
	h := l.hub
	hello, err := decodeHello(msg.Payload)
	if err != nil {
		h.muxOverheadIn.Add(arrived)
		l.fail()
		return false
	}
	switch hello.Role {
	case helloRoleOpen:
		wc := h.countersFor(hello.Worker)
		if wc == nil {
			// Identity capacity: refuse the route, keep the link.
			h.muxOverheadIn.Add(arrived)
			l.mu.Lock()
			if !l.failed && !l.stopWriter {
				l.ctrl = append(l.ctrl, transport.Message{
					Type:    msgHello,
					Payload: encodeHello(helloMsg{Role: helloRoleClose, Worker: hello.Worker, Route: hello.Route}),
				})
				l.cond.Broadcast()
			}
			l.mu.Unlock()
			return true
		}
		wc.supervisorHelloBytes.Add(arrived)
		l.mu.Lock()
		if _, dup := l.routes[hello.Route]; dup || l.failed {
			l.mu.Unlock()
			l.fail()
			return false
		}
		r := l.newRouteLocked(hello.Route, hello.Worker, wc)
		l.routes[hello.Route] = r
		l.mu.Unlock()
		h.routesOpened.Add(1)
		h.scheduleBind(r)
		return true
	case helloRoleClose:
		l.mu.Lock()
		r := l.routes[hello.Route]
		var wc *workerCounters
		if r != nil {
			wc = r.wc
		}
		if wc != nil {
			wc.supervisorHelloBytes.Add(arrived)
		} else {
			h.muxOverheadIn.Add(arrived)
		}
		if r == nil || r.state == routeDead {
			l.mu.Unlock()
			return true
		}
		if r.state == routePending {
			dead := r
			r.teardownLocked()
			if r.loops == 0 {
				delete(l.routes, r.id)
			}
			l.mu.Unlock()
			h.unpark([]*hubRoute{dead})
			return true
		}
		// Active route: the supervisor is done sending — drain what the hub
		// holds toward the worker, discard the return direction.
		r.toWorker.closed = true
		r.toSup.drop()
		r.noticeDue = false
		r.wcond.Broadcast()
		l.cond.Broadcast()
		l.mu.Unlock()
		return true
	default:
		// worker and mux hellos are link-opening frames, invalid mid-link.
		h.muxOverheadIn.Add(arrived)
		l.fail()
		return false
	}
}

// writeLoop is the physical link's only writer. Control frames (credits,
// close notices) go first; then data is drained route by route in rotating
// round-robin order, with consecutive batch frames of the same route
// coalesced and units from several routes packed into one envelope, so
// re-batching spans workers, not just tasks.
//
//gridlint:credit relay egress, control, and envelope-overhead bytes are credited after the onward send succeeds
func (l *supLink) writeLoop() {
	h := l.hub
	defer h.pumps.Done()
	for {
		l.mu.Lock()
		for !l.stopWriter && len(l.ctrl) == 0 && len(l.ready) == 0 {
			l.cond.Wait()
		}
		if l.stopWriter && (l.failed || (len(l.ctrl) == 0 && len(l.ready) == 0)) {
			l.mu.Unlock()
			return
		}
		if len(l.ctrl) > 0 {
			out := l.ctrl[0]
			l.ctrl = l.ctrl[1:]
			l.mu.Unlock()
			if err := l.conn.Send(out); err != nil {
				l.fail()
				return
			}
			h.ctrlMsgs.Add(1)
			h.ctrlBytes.Add(out.FrameSize())
			continue
		}
		entries, egress := l.gatherEnvelopeLocked()
		l.mu.Unlock()
		if len(entries) == 0 {
			continue
		}
		out := transport.Message{Type: msgRouted, Payload: encodeRouted(entries)}
		if err := l.conn.Send(out); err != nil {
			l.fail()
			return
		}
		var inner int64
		for _, e := range egress {
			inner += e.inner
			if e.r.wc != nil {
				e.r.wc.toSupervisor.egressMsgs.Add(1)
				e.r.wc.toSupervisor.egressBytes.Add(e.inner)
			}
		}
		h.relayedMsgs.Add(1)
		h.relayedBytes.Add(out.FrameSize())
		h.muxOverheadOut.Add(out.FrameSize() - inner)
	}
}

// routeEgress attributes one sent unit to its route (inner frame size).
type routeEgress struct {
	r     *hubRoute
	inner int64
}

// popUnitLocked pops the head route's next supervisor-bound unit, merging
// consecutive queued msgBatch frames. Reports whether a unit was produced.
func (l *supLink) popUnitLocked(r *hubRoute) (transport.Message, bool) {
	l.dequeueReadyLocked(r)
	first, ok := r.toSup.pop()
	if !ok {
		l.routeDrainedLocked(r)
		return transport.Message{}, false
	}
	out := coalesceBatches(&r.toSup, first, muxInnerPayloadCap)
	if !r.toSup.empty() {
		l.enqueueReadyLocked(r)
	} else {
		l.routeDrainedLocked(r)
	}
	r.wcond.Broadcast() // capacity waiters on toSup
	return out, true
}

// routeDrainedLocked runs the drained-queue transition: emit a due close
// notice once everything the worker sent has been relayed.
func (l *supLink) routeDrainedLocked(r *hubRoute) {
	if r.noticeDue && !r.noticeSent && r.toSup.closed && r.toSup.empty() {
		l.queueNoticeLocked(r)
	}
}

// gatherEnvelopeLocked packs units from the ready routes, round-robin, into
// one envelope up to the batch target. A route out of supervisor credit is
// parked out of the ready ring instead of blocking the gather — the shared
// writer keeps draining its siblings, and applyRouteGrant re-enqueues the
// route when its consumer catches up. The credit check precedes the pop
// and the debit follows it, so a route may overshoot its grant by at most
// one unit — the slack the mux's ledger tolerates by design.
//
//gridlint:credit stall parks and per-route send budgets live in the gather loop
func (l *supLink) gatherEnvelopeLocked() ([]routedEntry, []routeEgress) {
	var entries []routedEntry
	var acct []routeEgress
	var total int64
	for len(l.ready) > 0 && total < batchTargetBytes && len(entries) < maxRoutedEntries {
		r := l.ready[0]
		if r.supCredit <= 0 {
			l.dequeueReadyLocked(r)
			r.supStalled = true
			if r.wc != nil {
				r.wc.toSupStalls.Add(1)
			}
			continue
		}
		unit, ok := l.popUnitLocked(r)
		if !ok {
			continue
		}
		r.supCredit -= unit.FrameSize()
		entries = append(entries, routedEntry{Route: r.id, Type: unit.Type, Payload: unit.Payload})
		acct = append(acct, routeEgress{r: r, inner: unit.FrameSize()})
		total += unit.FrameSize()
	}
	return entries, acct
}

// enqueueReadyLocked appends the route to the round-robin drain order once.
func (l *supLink) enqueueReadyLocked(r *hubRoute) {
	if r.inReady || r.state == routeDead {
		return
	}
	r.inReady = true
	l.ready = append(l.ready, r)
	l.cond.Broadcast()
}

// dequeueReadyLocked removes the route from the head of the drain order.
func (l *supLink) dequeueReadyLocked(r *hubRoute) {
	if len(l.ready) > 0 && l.ready[0] == r {
		l.ready = l.ready[1:]
		r.inReady = false
	}
}

// coalesceBatches greedily merges the batch frames queued on q behind
// first (already popped) into one larger batch frame, stopping at the
// session layer's frame caps, at limit payload bytes, at the first
// non-mergeable frame (left queued to preserve order), or when the queue
// runs dry. Frames the hub cannot decode are forwarded untouched — the hub
// is a relay, not a validator; the endpoint rules on them.
func coalesceBatches(q *frameQ, first transport.Message, limit int64) transport.Message {
	if first.Type != msgBatch || q.empty() {
		return first
	}
	msgs, err := decodeBatch(first.Payload)
	if err != nil {
		return first
	}
	var size int64
	for _, tm := range msgs {
		size += tm.wireSize()
	}
	merged := false
	for size < batchTargetBytes && len(msgs) < maxBatchMsgs {
		next, ok := q.peek()
		if !ok || next.Type != msgBatch {
			break
		}
		more, err := decodeBatch(next.Payload)
		if err != nil {
			break
		}
		var moreSize int64
		for _, tm := range more {
			moreSize += tm.wireSize()
		}
		if size+moreSize > limit || len(msgs)+len(more) > maxBatchMsgs {
			break
		}
		q.pop()
		msgs = append(msgs, more...)
		size += moreSize
		merged = true
	}
	if !merged {
		return first
	}
	return transport.Message{Type: msgBatch, Payload: encodeBatch(msgs)}
}

// workerReadLoop is the worker link's reader for one bound route: frames
// from the participant are queued for the supervisor-side writer. A full
// queue blocks here — backpressure lands on the worker's own link, never
// on the shared supervisor link.
//
//gridlint:credit worker-leg ingress and corrupt-frame bytes are credited as they leave the source link
func (r *hubRoute) workerReadLoop() {
	defer r.loopDone()
	l := r.link
	for {
		before := r.down.Stats().BytesRecv()
		msg, err := r.down.Recv()
		arrived := r.down.Stats().BytesRecv() - before
		if r.vet != nil {
			// The monitor's Recv consumed this frame's bytes, possibly
			// before this loop's counter snapshot; the monitor's own
			// measurement is the exact delta either way.
			if pending, early := r.vet.takeEarly(); early {
				arrived = pending
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				r.workerSideClosed()
				return
			}
			if errors.Is(err, transport.ErrFrameCorrupt) && r.wc != nil {
				// Worker-leg damage is attributable to this route alone:
				// quarantine the route, not the link.
				r.wc.toSupervisor.corruptFrames.Add(1)
				r.wc.toSupervisor.corruptBytes.Add(arrived)
			}
			r.fail(true)
			return
		}
		if r.wc != nil {
			r.wc.toSupervisor.ingressMsgs.Add(1)
			r.wc.toSupervisor.ingressBytes.Add(msg.FrameSize())
		}
		l.mu.Lock()
		for r.toSup.bytes >= toWorkerQueueBytes && !r.toSup.closed && !r.toSup.discard {
			r.wcond.Wait()
		}
		if r.toSup.put(msg) {
			l.enqueueReadyLocked(r)
		}
		l.mu.Unlock()
	}
}

// workerSideClosed handles the participant ending its link cleanly: the
// supervisor-bound queue drains, then the supervisor gets a close notice.
func (r *hubRoute) workerSideClosed() {
	l := r.link
	l.mu.Lock()
	if r.state == routeDead {
		l.mu.Unlock()
		return
	}
	// If the supervisor side already finished (route close or link
	// shutdown), there is nothing left to relay in either direction and no
	// notice is owed — finalize the route on the spot.
	supDone := r.toWorker.closed || l.stopWriter
	r.toSup.closed = true
	// The worker is gone, so frames still queued toward it are
	// undeliverable.
	r.toWorker.drop()
	down := r.down
	if supDone {
		r.teardownLocked()
		if r.loops == 0 {
			delete(l.routes, r.id)
		}
	} else {
		r.noticeDue = true
		l.routeDrainedLocked(r)
	}
	r.wcond.Broadcast()
	l.cond.Broadcast()
	l.mu.Unlock()
	if down != nil {
		_ = down.Close()
	}
}

// workerWriteLoop is the worker link's writer for one bound route: it
// drains the route's supervisor→worker queue, coalescing consecutive batch
// frames, and grants credit back to the supervisor as bytes leave the
// queue.
//
//gridlint:credit relay egress toward the worker is credited after the onward send succeeds
func (r *hubRoute) workerWriteLoop() {
	l := r.link
	h := l.hub
	defer r.loopDone()
	for {
		l.mu.Lock()
		for r.toWorker.empty() && !r.toWorker.closed && !r.toWorker.discard {
			r.wcond.Wait()
		}
		if r.toWorker.discard {
			l.mu.Unlock()
			return
		}
		first, ok := r.toWorker.pop()
		if !ok {
			// closed && drained: the supervisor side ended cleanly and
			// everything it sent was delivered — finish the worker leg.
			l.mu.Unlock()
			if r.down != nil {
				_ = r.down.Close()
			}
			return
		}
		before := r.toWorker.bytes
		out := coalesceBatches(&r.toWorker, first, maxBatchPayload)
		r.toWorkerCredit.drain(first.FrameSize() + before - r.toWorker.bytes)
		if !l.failed && !l.stopWriter && !r.toWorker.closed {
			if grant := r.toWorkerCredit.grantDue(r.toWorker.bytes); grant > 0 {
				win := r.toWorkerCredit.win
				if r.wc != nil {
					r.wc.toWorkerGranted.Add(grant)
					r.wc.toWorkerWindow.Store(win)
				}
				l.ctrl = append(l.ctrl, transport.Message{
					Type:    msgCredit,
					Payload: encodeCredit(creditMsg{Route: r.id, Bytes: uint64(grant), Window: uint64(win)}),
				})
				l.cond.Broadcast()
			}
		}
		l.mu.Unlock()
		if err := r.down.Send(out); err != nil {
			r.fail(true)
			return
		}
		if r.wc != nil {
			r.wc.toWorker.egressMsgs.Add(1)
			r.wc.toWorker.egressBytes.Add(out.FrameSize())
		}
		h.relayedMsgs.Add(1)
		h.relayedBytes.Add(out.FrameSize())
	}
}

// Close tears down every link, route, and registered worker and blocks
// until all hub goroutines have exited, so the counters are final on
// return.
func (h *BrokerHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.pumps.Wait()
		return nil
	}
	h.closed = true
	avail := h.available
	h.available = make(map[string]transport.Conn)
	h.pendingBinds = make(map[string][]*hubRoute)
	links := make([]*supLink, 0, len(h.links))
	for l := range h.links {
		links = append(links, l)
	}
	h.mu.Unlock()
	for _, conn := range avail {
		_ = conn.Close()
	}
	for _, l := range links {
		l.fail()
	}
	h.pumps.Wait()
	return nil
}
