package grid

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncheatgrid/internal/leakcheck"
	"uncheatgrid/internal/transport"
)

// envelopeCountingConn counts the msgRouted envelopes written through it
// and the inner frames they carried.
type envelopeCountingConn struct {
	transport.Conn
	envelopes, entries atomic.Int64
}

func (c *envelopeCountingConn) Send(m transport.Message) error {
	var n int
	if m.Type == msgRouted {
		entries, err := decodeRouted(m.Payload)
		if err != nil {
			return err
		}
		n = len(entries)
	}
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	if n > 0 {
		c.envelopes.Add(1)
		c.entries.Add(int64(n))
	}
	return nil
}

// TestMuxCoalescesConcurrentRouteSends pins the group-commit writer: routes
// sending concurrently over one delayed physical link share envelopes, so
// the mux writes fewer physical msgRouted frames than its routes sent inner
// frames — and the muxed-link ledger identities still hold to the byte.
func TestMuxCoalescesConcurrentRouteSends(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	const routes, frames = 8, 40
	workers := make([]transport.Conn, routes)
	for i := range workers {
		down, wc := transport.Pipe(transport.WithBuffer(8))
		if err := HelloWorker(wc, fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatalf("HelloWorker: %v", err)
		}
		if err := hub.Attach(down); err != nil {
			t.Fatalf("Attach worker: %v", err)
		}
		workers[i] = wc
	}
	supConn, hubUp := transport.Pipe(transport.WithBuffer(8))
	counted := &envelopeCountingConn{Conn: transport.WithLatency(supConn, 200*time.Microsecond)}
	m, err := OpenMux(counted, "supervisor")
	if err != nil {
		t.Fatalf("OpenMux: %v", err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach mux: %v", err)
	}
	conns := make([]transport.Conn, routes)
	for i := range conns {
		if conns[i], err = m.OpenRoute(fmt.Sprintf("w-%d", i)); err != nil {
			t.Fatalf("OpenRoute(w-%d): %v", i, err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*routes)
	for i := 0; i < routes; i++ {
		wg.Add(2)
		go func(c transport.Conn) {
			defer wg.Done()
			payload := make([]byte, 256)
			for j := 0; j < frames; j++ {
				if err := c.Send(transport.Message{Type: msgResultChunk, Payload: payload}); err != nil {
					errs <- fmt.Errorf("route send %d: %w", j, err)
					return
				}
			}
		}(conns[i])
		go func(c transport.Conn) {
			defer wg.Done()
			for j := 0; j < frames; j++ {
				if _, err := c.Recv(); err != nil {
					errs <- fmt.Errorf("worker recv %d: %w", j, err)
					return
				}
			}
		}(workers[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var innerSent int64
	for _, c := range conns {
		innerSent += c.Stats().MsgsSent()
	}
	if innerSent != routes*frames {
		t.Fatalf("routes credited %d inner frames, want %d", innerSent, routes*frames)
	}
	if got := counted.entries.Load(); got != innerSent {
		t.Fatalf("envelopes carried %d inner frames, routes sent %d", got, innerSent)
	}
	envelopes := counted.envelopes.Load()
	if envelopes >= innerSent {
		t.Errorf("mux wrote %d physical envelopes for %d concurrent inner frames; sends are not coalescing", envelopes, innerSent)
	}
	t.Logf("%d inner frames in %d envelopes (%.1f per envelope)", innerSent, envelopes, float64(innerSent)/float64(envelopes))

	for _, c := range conns {
		_ = c.Close()
	}
	_ = m.Close()
	_ = hub.Close()
	for _, wc := range workers {
		_ = wc.Close()
	}

	var supHello, toWorkerIn int64
	for i, c := range conns {
		name := fmt.Sprintf("w-%d", i)
		st, ok := hub.WorkerStats(name)
		if !ok {
			t.Fatalf("no route stats for %s", name)
		}
		if got := c.Stats().BytesSent(); got != st.ToWorker.IngressBytes {
			t.Errorf("%s: route sent %dB, hub ToWorker ingress %dB", name, got, st.ToWorker.IngressBytes)
		}
		supHello += st.SupervisorHelloBytes
		toWorkerIn += st.ToWorker.IngressBytes
	}
	muxHello := transport.Message{Type: msgHello, Payload: encodeHello(helloMsg{Role: helloRoleMux, Worker: "supervisor"})}.FrameSize()
	physRecv := hubUp.Stats().BytesRecv()
	if want := muxHello + supHello + toWorkerIn + hub.MuxOverheadIngressBytes() + hub.OrphanedBytes() + hub.MuxCorruptBytes() + hub.ControlIngressBytes(); physRecv != want {
		t.Errorf("physical ingress %dB does not decompose: hellos %d+%d, inner %d, overhead %d, orphans %d, corrupt %d, control-in %d",
			physRecv, muxHello, supHello, toWorkerIn, hub.MuxOverheadIngressBytes(), hub.OrphanedBytes(), hub.MuxCorruptBytes(), hub.ControlIngressBytes())
	}
}

// gatedConn holds every Send while its gate is shut, until the gate opens,
// the sends are broken (they then fail), or the conn closes.
type gatedConn struct {
	transport.Conn
	mu     sync.Mutex
	cond   *sync.Cond
	shut   bool
	broken bool
	closed bool
	held   int
}

func newGatedConn(c transport.Conn) *gatedConn {
	g := &gatedConn{Conn: c}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gatedConn) Send(m transport.Message) error {
	g.mu.Lock()
	g.held++
	g.cond.Broadcast()
	for g.shut && !g.broken && !g.closed {
		g.cond.Wait()
	}
	g.held--
	fail := g.broken || g.closed
	g.mu.Unlock()
	if fail {
		return transport.ErrClosed
	}
	return g.Conn.Send(m)
}

func (g *gatedConn) Close() error {
	g.setFlag(&g.closed)
	return g.Conn.Close()
}

func (g *gatedConn) setFlag(f *bool) {
	g.mu.Lock()
	*f = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// TestMuxQueuedSendsFailWithLink pins the writer's failure semantics: with
// the physical link wedged mid-write and every route's Send queued behind
// it, failing the link — or closing the mux — fails every waiting Send,
// credits no unwritten frame to its route's Stats (the peer's received
// inner bytes equal the routes' sent bytes exactly), and Close leaves no
// goroutine behind.
func TestMuxQueuedSendsFailWithLink(t *testing.T) {
	for _, viaClose := range []bool{false, true} {
		name := "link-fails"
		if viaClose {
			name = "mux-closes"
		}
		t.Run(name, func(t *testing.T) {
			const routes = 8
			supConn, peer := transport.Pipe(transport.WithBuffer(1024))
			gate := newGatedConn(supConn)
			m, err := OpenMux(gate, "supervisor")
			if err != nil {
				t.Fatalf("OpenMux: %v", err)
			}
			conns := make([]transport.Conn, routes)
			msg := transport.Message{Type: msgResultChunk, Payload: make([]byte, 64)}
			for i := range conns {
				if conns[i], err = m.OpenRoute(fmt.Sprintf("w-%d", i)); err != nil {
					t.Fatalf("OpenRoute: %v", err)
				}
				// One frame per route goes out before the link wedges.
				if err := conns[i].Send(msg); err != nil {
					t.Fatalf("send before wedge: %v", err)
				}
			}
			gate.setFlag(&gate.shut)

			var wg sync.WaitGroup
			sendErrs := make([]error, routes)
			for i, c := range conns {
				wg.Add(1)
				go func(i int, c transport.Conn) {
					defer wg.Done()
					for sendErrs[i] == nil {
						sendErrs[i] = c.Send(msg)
					}
				}(i, c)
			}
			// Wait until the writer is wedged inside the physical Send and
			// every route's next frame is queued behind it.
			deadline := time.Now().Add(5 * time.Second)
			for {
				m.mu.Lock()
				pending := m.queued - m.written
				m.mu.Unlock()
				gate.mu.Lock()
				held := gate.held
				gate.mu.Unlock()
				if pending == routes && held == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("queued %d sends with %d physical writes held; want %d and 1", pending, held, routes)
				}
				time.Sleep(100 * time.Microsecond)
			}

			if viaClose {
				_ = m.Close()
			} else {
				gate.setFlag(&gate.broken)
			}
			wg.Wait()
			for i, err := range sendErrs {
				if !errors.Is(err, transport.ErrClosed) {
					t.Errorf("route %d: queued Send returned %v, want ErrClosed", i, err)
				}
			}
			if !m.Failed() {
				t.Error("mux still healthy after its link failed")
			}

			// Everything the peer received, by route, must equal what the
			// routes credited as sent.
			received := make(map[uint64]int64)
			for {
				f, err := peer.Recv()
				if err != nil {
					break
				}
				if f.Type != msgRouted {
					continue
				}
				entries, err := decodeRouted(f.Payload)
				if err != nil {
					t.Fatalf("peer decode: %v", err)
				}
				for _, e := range entries {
					received[e.Route] += e.innerFrameSize()
				}
			}
			for i, c := range conns {
				r := c.(*muxRouteConn)
				if got, want := c.Stats().BytesSent(), received[r.id]; got != want {
					t.Errorf("route %d credited %dB sent, peer received %dB", i, got, want)
				}
				if got := c.Stats().MsgsSent(); got != 1 {
					t.Errorf("route %d credited %d frames, want only the one written before the wedge", i, got)
				}
			}

			_ = m.Close()
			_ = peer.Close()
			if err := leakcheck.Check(5 * time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}
