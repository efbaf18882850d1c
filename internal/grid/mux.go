package grid

// Supervisor-side route multiplexing.
//
// The hub side of PR 8 (broker.go) runs one reader and one writer per
// physical link no matter how many routes ride it; this file is the
// matching supervisor endpoint. A SupervisorMux owns one physical
// supervisor↔hub connection attached with a mux hello and opens any number
// of named routes over it. Each route is a transport.Conn — the session,
// pool, and stream layers use it exactly like a dedicated link — whose
// frames travel inside msgRouted envelopes:
//
//	supervisor                         hub
//	  session A ──┐                ┌── route A ── worker A
//	  session B ──┤ one phys link  ├── route B ── worker B
//	  session C ──┘   (msgRouted)  └── route C ── worker C
//
// Flow control is credit-based, per route, and symmetric. Sending: a
// route starts with a floor of send budget (the adaptive window's initial
// value, denominated in dedicated-link frame sizes), spends it as it
// sends, and is replenished by msgCredit grants the hub issues as the
// worker-side writer drains the route's queue — a route that outruns its
// slow worker blocks in Send while every other route keeps flowing.
// Receiving: the mux extends the same kind of credit to the hub per
// route, charges every delivered inner frame against it, and grants more
// as the route's consumer drains its inbox — so a route whose consumer
// stalls caps its own inbox at one adaptive window while the shared
// reader keeps delivering to its siblings, and the hub parks (not blocks)
// the starved route.
//
// Writes mirror the hub's one-writer-per-link design: every outbound frame —
// route data, credit grants, open/close hellos — joins one FIFO that a
// single group-commit writer goroutine drains. Each run of consecutive data
// entries, from however many routes, leaves as ONE msgRouted envelope, so
// concurrent route senders share the physical link's per-frame cost instead
// of queueing behind each other's single-entry frames; control frames go
// out on their own, in FIFO order. A sender waits until the writer reports
// its entry on the wire, so Send keeps synchronous error semantics and the
// route's Stats only ever count bytes that were written. A consumer
// draining its inbox only queues its grant, never waits on the physical
// send. Backpressure never idles the shared link in either direction.
//
// Route conns keep honest endpoint counters via Stats().CreditSend/Recv,
// denominated in the frame sizes their traffic would have cost on a
// dedicated link, so per-route accounting reconciles exactly with the hub's
// RouteStats; envelope framing differences live in the hub's mux overhead
// ledgers.

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"uncheatgrid/internal/transport"
)

// ErrMuxClosed is returned for operations on a closed SupervisorMux.
var ErrMuxClosed = errors.New("grid: supervisor mux closed")

// muxConfig collects OpenMux options.
type muxConfig struct {
	creditWindow int64
}

// MuxOption configures OpenMux. Options both link endpoints must agree on
// (see WithRouteCreditWindow) also implement BrokerOption.
type MuxOption interface {
	applyMux(*muxConfig)
}

// SupervisorMux multiplexes any number of supervisor↔worker routes over one
// physical hub link. Open routes with OpenRoute; each is an independent
// transport.Conn. Safe for concurrent use by any number of route owners.
type SupervisorMux struct {
	conn         transport.Conn
	label        string
	creditWindow int64

	mu      sync.Mutex
	routes  map[uint64]*muxRouteConn
	nextID  uint64
	closed  bool
	linkErr error
	// out is the outbound FIFO the writer drains. queued counts the entries
	// ever submitted, and an entry's sequence is its 1-based submission
	// number; written is the watermark — the first written entries are on
	// the wire. outCond wakes the writer; wroteCond wakes submitters waiting
	// on the watermark. writerExited is set once the writer stopped for
	// good: entries past the watermark then never go out. All guarded by mu.
	out          []muxOut
	queued       uint64
	written      uint64
	writerExited bool
	outCond      *sync.Cond
	wroteCond    *sync.Cond

	// orphanFrames/orphanBytes count inner frames that arrived for a route
	// this endpoint no longer has (closed locally before the hub learned);
	// bytes are dedicated-link-equivalent frame sizes.
	orphanFrames atomic.Int64
	orphanBytes  atomic.Int64
	// Grant ledgers for the hub→supervisor direction: control frames sent
	// and their physical bytes, the credit bytes they granted, and — from
	// the sending side — the credit bytes the hub granted this endpoint.
	// They reconcile against the hub's per-route grant counters exactly.
	grantFrames    atomic.Int64
	grantWireBytes atomic.Int64
	creditGranted  atomic.Int64
	creditReceived atomic.Int64

	readerDone chan struct{}
	writerDone chan struct{}
}

// muxOut is one outbound FIFO entry. A data entry carries a route's inner
// frame and is packed with its neighbours into a shared msgRouted envelope;
// a control entry carries a complete frame — an open/close hello, or a
// credit grant of grant bytes — written on its own.
type muxOut struct {
	data  bool
	route uint64
	msg   transport.Message
	grant uint64
}

// OpenMux attaches conn to a BrokerHub as a multiplexed supervisor link and
// returns the mux. The label names the supervisor for diagnostics — it is
// not a worker identity and takes no slot in the hub's identity registry.
// The mux owns the connection from here on; Close it through the mux.
// Options both endpoints must agree on (WithRouteCreditWindow) must match
// what the hub was built with.
func OpenMux(conn transport.Conn, label string, opts ...MuxOption) (*SupervisorMux, error) {
	if conn == nil {
		return nil, fmt.Errorf("%w: nil connection", ErrBadConfig)
	}
	cfg := muxConfig{creditWindow: defaultCreditWindowBytes}
	for _, opt := range opts {
		opt.applyMux(&cfg)
	}
	if err := sendHello(conn, helloMsg{Role: helloRoleMux, Worker: label}); err != nil {
		return nil, err
	}
	m := &SupervisorMux{
		conn:         conn,
		label:        label,
		creditWindow: cfg.creditWindow,
		routes:       make(map[uint64]*muxRouteConn),
		readerDone:   make(chan struct{}),
		writerDone:   make(chan struct{}),
	}
	m.outCond = sync.NewCond(&m.mu)
	m.wroteCond = sync.NewCond(&m.mu)
	go m.readLoop()
	go m.writeLoop()
	return m, nil
}

// Label reports the supervisor label the mux attached with.
func (m *SupervisorMux) Label() string { return m.label }

// OrphanedFrames reports inner frames delivered for routes this endpoint
// had already closed.
func (m *SupervisorMux) OrphanedFrames() int64 { return m.orphanFrames.Load() }

// OrphanedBytes reports the dedicated-link-equivalent bytes of orphaned
// inner frames.
func (m *SupervisorMux) OrphanedBytes() int64 { return m.orphanBytes.Load() }

// GrantFrames reports how many credit-grant control frames this endpoint
// wrote to the link, and GrantWireBytes their physical frame bytes; the
// hub counts the same frames as ControlIngress.
func (m *SupervisorMux) GrantFrames() int64 { return m.grantFrames.Load() }

// GrantWireBytes reports the physical bytes of sent grant frames.
func (m *SupervisorMux) GrantWireBytes() int64 { return m.grantWireBytes.Load() }

// CreditGrantedBytes reports the credit this endpoint granted the hub for
// the worker→supervisor direction, summed over routes.
func (m *SupervisorMux) CreditGrantedBytes() int64 { return m.creditGranted.Load() }

// CreditReceivedBytes reports the credit the hub granted this endpoint for
// the supervisor→worker direction, summed over routes.
func (m *SupervisorMux) CreditReceivedBytes() int64 { return m.creditReceived.Load() }

// OpenRoutes reports how many routes are currently open on the mux.
func (m *SupervisorMux) OpenRoutes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.routes)
}

// Failed reports whether the physical link has died (or the mux was
// closed); a failed mux opens no further routes and the owner must dial a
// fresh link.
func (m *SupervisorMux) Failed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed || m.linkErr != nil
}

// OpenRoute opens a new route to the named registered worker and returns
// its connection. The route behaves like a link dialed straight to the
// worker through the hub: it binds to the worker's registration (waiting up to the
// hub's bind timeout), relays frames both ways, and surfaces route or link
// death as a closed connection that the session layer's quarantine/resume
// machinery recovers from.
func (m *SupervisorMux) OpenRoute(worker string) (transport.Conn, error) {
	if worker == "" {
		return nil, fmt.Errorf("%w: empty worker identity", ErrBadConfig)
	}
	if len(worker) > maxWorkerNameLen {
		return nil, fmt.Errorf("%w: worker identity of %d bytes (max %d)",
			ErrBadConfig, len(worker), maxWorkerNameLen)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrMuxClosed
	}
	if m.linkErr != nil {
		err := m.linkErr
		m.mu.Unlock()
		return nil, fmt.Errorf("grid: mux link down: %w", err)
	}
	id := m.nextID
	m.nextID++
	// Send credit starts at the adaptive floor — the hub extends the same
	// initial window from the shared ceiling — and the receive ledger
	// mirrors what this endpoint extends to the hub.
	r := &muxRouteConn{
		mux:    m,
		id:     id,
		worker: worker,
		credit: initialCreditWindow(m.creditWindow),
		led:    newCreditLedger(m.creditWindow),
	}
	r.cond = sync.NewCond(&r.mu)
	m.routes[id] = r
	m.mu.Unlock()
	// Waiting for the hello to be written keeps it ahead of the route's
	// first data entry on the wire.
	if err := m.submit(muxOut{msg: transport.Message{
		Type:    msgHello,
		Payload: encodeHello(helloMsg{Role: helloRoleOpen, Worker: worker, Route: id}),
	}}, true); err != nil {
		m.mu.Lock()
		delete(m.routes, id)
		m.mu.Unlock()
		return nil, err
	}
	return r, nil
}

// submit appends e to the outbound FIFO and, when wait is set, blocks until
// the writer has put it on the wire. Nothing is queued once the mux is
// closed or its link is down; a waiter whose entry the writer never wrote
// gets the reason instead.
func (m *SupervisorMux) submit(e muxOut, wait bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.linkErr != nil {
		return m.downErrLocked()
	}
	m.out = append(m.out, e)
	m.queued++
	seq := m.queued
	if len(m.out) == 1 {
		m.outCond.Signal() // the writer only sleeps on an empty FIFO
	}
	if !wait {
		return nil
	}
	for m.written < seq && !m.writerExited {
		m.wroteCond.Wait()
	}
	if m.written >= seq {
		return nil
	}
	return m.downErrLocked()
}

// downErrLocked reports why the mux writes nothing more: ErrClosed after a
// local Close, otherwise the link failure, still matching ErrClosed.
func (m *SupervisorMux) downErrLocked() error {
	if m.closed || m.linkErr == nil {
		return transport.ErrClosed
	}
	return fmt.Errorf("%w: mux link down: %v", transport.ErrClosed, m.linkErr)
}

// route looks up a live route by ID.
func (m *SupervisorMux) route(id uint64) *muxRouteConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routes[id]
}

// dropRoute forgets a locally closed route; later deliveries to the ID are
// counted as orphans.
func (m *SupervisorMux) dropRoute(id uint64) {
	m.mu.Lock()
	delete(m.routes, id)
	m.mu.Unlock()
}

// readLoop is the physical link's only reader: it distributes envelope
// entries to route inboxes, applies credit grants, and marks routes the hub
// closed. Any receive failure — or a protocol-violating frame — kills the
// whole link: damage on a shared link is not attributable to one route, the
// exact mirror of the hub's quarantine rule.
//
//gridlint:credit orphaned-delivery accounting on the shared link is only observable at its single reader
func (m *SupervisorMux) readLoop() {
	defer close(m.readerDone)
	for {
		msg, err := m.conn.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		switch msg.Type {
		case msgRouted:
			entries, err := decodeRouted(msg.Payload)
			if err != nil {
				m.fail(fmt.Errorf("%w: malformed mux envelope: %v", transport.ErrClosed, err))
				return
			}
			transport.RecyclePayload(msg.Payload)
			for _, e := range entries {
				r := m.route(e.Route)
				if r == nil {
					m.orphanFrames.Add(1)
					m.orphanBytes.Add(e.innerFrameSize())
					continue
				}
				ok, violation := r.deliver(transport.Message{Type: e.Type, Payload: e.Payload})
				if violation {
					// The hub is ignoring this endpoint's credit grants — a
					// link-level protocol violation, exactly as the hub
					// classifies a credit-ignoring supervisor.
					m.fail(fmt.Errorf("%w: route %d overran its receive credit", transport.ErrClosed, e.Route))
					return
				}
				if !ok {
					m.orphanFrames.Add(1)
					m.orphanBytes.Add(e.innerFrameSize())
				}
			}
		case msgCredit:
			c, err := decodeCredit(msg.Payload)
			if err != nil {
				m.fail(fmt.Errorf("%w: malformed credit grant: %v", transport.ErrClosed, err))
				return
			}
			if r := m.route(c.Route); r != nil {
				if !r.grant(int64(c.Bytes), int64(c.Window)) {
					m.fail(fmt.Errorf("%w: route %d send credit overflow", transport.ErrClosed, c.Route))
					return
				}
				m.creditReceived.Add(int64(c.Bytes))
			}
		case msgHello:
			hello, err := decodeHello(msg.Payload)
			if err != nil || hello.Role != helloRoleClose {
				m.fail(fmt.Errorf("%w: unexpected hello on mux link", transport.ErrClosed))
				return
			}
			if r := m.route(hello.Route); r != nil {
				r.remoteClosed()
			}
		default:
			m.fail(fmt.Errorf("%w: frame type %d invalid on mux link", transport.ErrClosed, msg.Type))
			return
		}
	}
}

// fail records the link-fatal error, closes the physical connection, and
// wakes every route with it.
func (m *SupervisorMux) fail(err error) {
	m.mu.Lock()
	if m.linkErr == nil {
		m.linkErr = err
	}
	m.outCond.Broadcast()
	routes := make([]*muxRouteConn, 0, len(m.routes))
	for _, r := range m.routes {
		routes = append(routes, r)
	}
	m.mu.Unlock()
	_ = m.conn.Close()
	for _, r := range routes {
		r.linkFailed(err)
	}
}

// Close tears down the mux: the physical link closes, every open route
// observes a dead connection, queued entries are abandoned (their waiting
// senders get ErrClosed), and Close blocks until the reader and the writer
// have exited so the mux holds no goroutines afterwards.
func (m *SupervisorMux) Close() error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.outCond.Broadcast()
	m.mu.Unlock()
	if !already {
		_ = m.conn.Close()
	}
	<-m.readerDone
	<-m.writerDone
	return nil
}

// queueGrant hands one credit grant to the writer without waiting for it to
// be written. Called by routes after releasing their own mutex — route
// mutexes are leaves under m.mu, never the reverse.
func (m *SupervisorMux) queueGrant(g creditMsg) {
	_ = m.submit(muxOut{
		msg:   transport.Message{Type: msgCredit, Payload: encodeCredit(g)},
		grant: g.Bytes,
	}, false)
}

// writeLoop is the mux's second and last goroutine and the physical link's
// only writer — the mirror of the hub's per-link writeLoop. It takes the
// whole FIFO at once and writes it as few frames as FIFO order allows: each
// run of consecutive data entries becomes one envelope, each control entry
// its own frame. After every physical send it advances the written
// watermark and wakes the waiting senders with one broadcast. A failed send
// kills the link; a closed or failed mux stops the writer with whatever is
// still queued unwritten.
//
//gridlint:credit grant egress is only observable where the control frame is written
func (m *SupervisorMux) writeLoop() {
	defer close(m.writerDone)
	var batch []muxOut
	var scratch []routedEntry
	for {
		m.mu.Lock()
		for len(m.out) == 0 && !m.closed && m.linkErr == nil {
			m.outCond.Wait()
		}
		if m.closed || m.linkErr != nil {
			m.writerExited = true
			m.wroteCond.Broadcast()
			m.mu.Unlock()
			return
		}
		batch, m.out = m.out, batch[:0]
		m.mu.Unlock()
		for i := 0; i < len(batch); {
			var out transport.Message
			var n int
			out, n, scratch = nextMuxFrame(batch[i:], scratch)
			if err := m.conn.Send(out); err != nil {
				m.fail(err)
				break
			}
			if g := batch[i].grant; g > 0 {
				m.grantFrames.Add(1)
				m.grantWireBytes.Add(out.FrameSize())
				m.creditGranted.Add(int64(g))
			}
			i += n
			m.mu.Lock()
			m.written += uint64(n)
			m.wroteCond.Broadcast()
			m.mu.Unlock()
		}
		clear(batch) // drop payload references before the slice is reused
	}
}

// maxEnvelopeBody bounds the entries of one envelope so the whole payload,
// entry count included (at most a 3-byte uvarint under maxRoutedEntries),
// stays a legal frame.
const maxEnvelopeBody = transport.MaxFrameBytes - 3

// nextMuxFrame builds the next physical frame from the head of q and
// reports how many entries it carries: a control entry alone, or the run
// of data entries at the head packed into one envelope, split only where
// the frame-size or entry-count cap forces it. scratch is the caller's
// reusable entry buffer, returned emptied.
func nextMuxFrame(q []muxOut, scratch []routedEntry) (transport.Message, int, []routedEntry) {
	if !q[0].data {
		return q[0].msg, 1, scratch
	}
	entries := scratch[:0]
	var body int
	for _, o := range q {
		if !o.data || len(entries) == maxRoutedEntries {
			break
		}
		e := routedEntry{Route: o.route, Type: o.msg.Type, Payload: o.msg.Payload}
		if len(entries) > 0 && body+e.encodedSize() > maxEnvelopeBody {
			break
		}
		entries = append(entries, e)
		body += e.encodedSize()
	}
	out := transport.Message{Type: msgRouted, Payload: encodeRouted(entries)}
	n := len(entries)
	clear(entries)
	return out, n, entries[:0]
}

// muxRouteConn is one route's supervisor endpoint: a transport.Conn whose
// frames ride the shared physical link. Send blocks while the route is out
// of credit; Recv drains the inbox the mux reader fills. Its Stats are
// credited in dedicated-link-equivalent frame sizes.
type muxRouteConn struct {
	mux    *SupervisorMux
	id     uint64
	worker string
	stats  transport.Stats

	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []transport.Message
	credit int64
	// hubWindow mirrors the hub's advertised adaptive window for this
	// route's send direction (stats only).
	hubWindow int64
	// led is the receive side: the credit this endpoint has extended to
	// the hub for the route's inbox, and the adaptive window sizing it.
	// queued tracks inbox occupancy in dedicated-link frame sizes.
	led    creditLedger
	queued int64
	closed bool // Close called locally
	// remote is set by the hub's close notice: the worker side of the route
	// is finished. Recv drains the inbox then reports io.EOF, mirroring a
	// dedicated link's drain-after-peer-close contract.
	remote  bool
	linkErr error
}

var _ transport.Conn = (*muxRouteConn)(nil)

// Worker reports the worker identity the route was opened to.
func (r *muxRouteConn) Worker() string { return r.worker }

// Stats implements transport.Conn.
func (r *muxRouteConn) Stats() *transport.Stats { return &r.stats }

// Send implements transport.Conn: it spends route credit (blocking while
// exhausted), queues the frame on the mux's outbound FIFO, and waits until
// the writer has put it on the shared link — usually packed into one
// envelope with concurrent sends of other routes. Only a written frame is
// credited to the route's Stats; if the link fails or the mux closes
// first, Send returns the error. The debit may push the balance negative
// for one frame larger than the whole window — the hub's queue bound
// allows exactly that overshoot, so oversized-but-legal frames cannot
// deadlock.
func (r *muxRouteConn) Send(m transport.Message) error {
	if int64(len(m.Payload)) > muxInnerPayloadCap {
		return fmt.Errorf("%w: %d-byte payload cannot cross a multiplexed link",
			transport.ErrFrameTooLarge, len(m.Payload))
	}
	size := m.FrameSize()
	r.mu.Lock()
	for r.credit <= 0 && !r.closed && !r.remote && r.linkErr == nil {
		r.cond.Wait()
	}
	if r.closed || r.remote || r.linkErr != nil {
		r.mu.Unlock()
		return transport.ErrClosed
	}
	r.credit -= size
	r.mu.Unlock()
	if err := r.mux.submit(muxOut{data: true, route: r.id, msg: m}, true); err != nil {
		return err
	}
	r.stats.CreditSend(size)
	return nil
}

// Recv implements transport.Conn: inbox frames first, then the route's
// terminal condition — ErrClosed after a local Close, the link error after
// a link failure, io.EOF once the hub announced the worker side finished.
// Each drain feeds the receive ledger; when a grant falls due it is queued
// for the mux's writer (after releasing the route mutex — the FIFO lives
// under m.mu, which is never taken under r.mu). Grants ride
// the link as control frames, not route traffic: they never touch the
// route's Stats, so per-route endpoint counters keep reconciling with the
// hub's RouteStats.
func (r *muxRouteConn) Recv() (transport.Message, error) {
	r.mu.Lock()
	for {
		if len(r.inbox) > 0 {
			m := r.inbox[0]
			r.inbox[0] = transport.Message{}
			r.inbox = r.inbox[1:]
			if len(r.inbox) == 0 {
				r.inbox = nil
			}
			size := m.FrameSize()
			r.queued -= size
			r.led.drain(size)
			var grant creditMsg
			if !r.closed && !r.remote && r.linkErr == nil {
				if g := r.led.grantDue(r.queued); g > 0 {
					grant = creditMsg{Route: r.id, Bytes: uint64(g), Window: uint64(r.led.win)}
				}
			}
			r.mu.Unlock()
			r.stats.CreditRecv(size)
			if grant.Bytes > 0 {
				r.mux.queueGrant(grant)
			}
			return m, nil
		}
		switch {
		case r.closed:
			r.mu.Unlock()
			return transport.Message{}, transport.ErrClosed
		case r.linkErr != nil:
			err := r.linkErr
			r.mu.Unlock()
			return transport.Message{}, err
		case r.remote:
			r.mu.Unlock()
			return transport.Message{}, io.EOF
		}
		r.cond.Wait()
	}
}

// Close implements transport.Conn: the route is retired locally, pending
// Send/Recv calls unblock, and — when the link is still healthy — a
// best-effort close hello tells the hub to drain and retire the route.
// Close does not wait for the hello to be written; FIFO order puts it
// after every data frame the route's Sends already queued.
func (r *muxRouteConn) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	notify := r.linkErr == nil && !r.remote
	r.cond.Broadcast()
	r.mu.Unlock()
	r.mux.dropRoute(r.id)
	if notify {
		_ = r.mux.submit(muxOut{msg: transport.Message{
			Type:    msgHello,
			Payload: encodeHello(helloMsg{Role: helloRoleClose, Worker: r.worker, Route: r.id}),
		}}, false)
	}
	return nil
}

// deliver appends one inner frame to the inbox, charging it against the
// credit this endpoint extended. ok=false means the route is closed and
// the frame is the caller's orphan to count; violation=true means the hub
// overran the route's credit beyond the one-frame slack — the caller must
// kill the link.
func (r *muxRouteConn) deliver(m transport.Message) (ok, violation bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, false
	}
	if !r.led.arrive(m.FrameSize()) {
		return false, true
	}
	r.queued += m.FrameSize()
	r.inbox = append(r.inbox, m)
	r.cond.Broadcast()
	return true, false
}

// grant adds a hub credit grant to the send budget and records the hub's
// advertised window. False means the balance overflowed past any honest
// window — a link violation the caller must act on.
func (r *muxRouteConn) grant(n, window int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.credit += n
	r.hubWindow = window
	r.cond.Broadcast()
	return r.credit <= maxCreditGrant
}

// remoteClosed records the hub's close notice for the route.
func (r *muxRouteConn) remoteClosed() {
	r.mu.Lock()
	r.remote = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// linkFailed records the shared link's death on the route.
func (r *muxRouteConn) linkFailed(err error) {
	r.mu.Lock()
	if r.linkErr == nil {
		r.linkErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}
