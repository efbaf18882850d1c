package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// Salts keep the values derived from one workload seed independent.
const (
	saltTaskSeed   = 0x7461736b
	saltSupervisor = 0x73757076
	saltCheat      = 0x63686561
	saltFabricate  = 0x66616272
)

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cheatSchedule decides which tasks the lazy cheater takes — one in every,
// chosen by task ID so the schedule does not depend on which participant
// happens to claim a task. It is the ground truth the verdicts are checked
// against; cheated counts the tasks the lazy cheater actually produced.
type cheatSchedule struct {
	every, phase uint64
	cheated      atomic.Int64
}

func newCheatSchedule(every, seed uint64) *cheatSchedule {
	s := &cheatSchedule{every: every}
	if every > 0 {
		s.phase = mix(seed^saltCheat) % every
	}
	return s
}

func (s *cheatSchedule) takes(id uint64) bool {
	return s.every > 0 && (id+s.phase)%s.every == 0
}

// benchProducer is the behaviour the benchmark's ProducerFactory returns
// for every task: honest, unless the schedule hands the task to the lazy
// cheater, which evaluates f on the even inputs and fabricates the odd
// ones with one hash-free mix per input. The task is recovered from the
// first claimed input as x / taskSize.
type benchProducer struct {
	f        workload.Function
	taskSize uint64
	sched    *cheatSchedule
	once     sync.Once
	lazy     atomic.Bool
}

var _ cheat.Producer = (*benchProducer)(nil)

func (p *benchProducer) Name() string {
	if p.lazy.Load() {
		return "lazy"
	}
	return "honest"
}

func (p *benchProducer) Claim(x uint64) []byte {
	p.once.Do(func() {
		id := x / p.taskSize
		if p.sched.takes(id) {
			p.lazy.Store(true)
			p.sched.cheated.Add(1)
		}
	})
	if !p.HonestOn(x) {
		return fabricate(x)
	}
	return p.f.Eval(x)
}

func (p *benchProducer) HonestOn(x uint64) bool { return !p.lazy.Load() || x%2 == 0 }

func (p *benchProducer) Report(_ uint64, s string, interesting bool) (string, bool) {
	return s, interesting
}

// fabricate stands in for f(x): eight bytes, the synthetic workload's
// output width.
func fabricate(x uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, mix(x^saltFabricate))
	return out
}

// world is one instance of a workload's deployment: participants, the
// supervisor pool, window ledgers and the links between them.
type world struct {
	sp    workloadSpec
	tr    *tracer // nil when untraced
	sched *cheatSchedule
	dir   string

	parts   []*grid.Participant
	pool    *grid.SupervisorPool
	ledgers []*grid.WindowLedger

	hub *grid.BrokerHub
	mux *grid.SupervisorMux

	// routes are the connections the next stream runs over; physical are
	// every supervisor-side physical connection the world ever opened,
	// whose Stats give the wire bytes and frames.
	routes   []transport.Conn
	physical []transport.Conn

	serveWG   sync.WaitGroup
	serveMu   sync.Mutex
	serveErrs []error
}

// newWorld builds a workload's deployment, ready to run its first stream.
// dir holds the participants' checkpoint files and must not exist yet.
func newWorld(sp workloadSpec, seed uint64, tr *tracer, dir string) (*world, error) {
	w := &world{sp: sp, tr: tr, sched: newCheatSchedule(sp.cheatEvery, seed), dir: dir}
	for i := 0; i < participantCount; i++ {
		var opts []grid.ParticipantOption
		if sp.segmentTasks > 0 {
			opts = append(opts, grid.WithCheckpointDir(filepath.Join(dir, fmt.Sprintf("p%d", i))))
		}
		p, err := grid.NewParticipant(fmt.Sprintf("p%d", i), w.factory, opts...)
		if err != nil {
			return nil, err
		}
		w.parts = append(w.parts, p)
	}
	cfg := grid.SupervisorConfig{Spec: sp.schemeSpec(), Seed: int64(mix(seed ^ saltSupervisor))}
	pool, err := grid.NewSupervisorPool(cfg, sp.window*sp.totalRoutes())
	if err != nil {
		return nil, err
	}
	w.pool = pool
	if sp.windowTasks > 0 {
		for range w.parts {
			led, err := grid.NewWindowLedger(cfg.Spec)
			if err != nil {
				return nil, err
			}
			w.ledgers = append(w.ledgers, led)
		}
	}
	if sp.wanLatency > 0 {
		if err := w.openWAN(); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
	w.dialDirect()
	return w, nil
}

func (w *world) factory(f workload.Function) (cheat.Producer, error) {
	if w.tr != nil {
		f = tracedFunc{Function: f, tr: w.tr}
	}
	return &benchProducer{f: f, taskSize: w.sp.taskSize, sched: w.sched}, nil
}

func (w *world) serve(p *grid.Participant, conn transport.Conn) {
	w.serveWG.Add(1)
	go func() {
		defer w.serveWG.Done()
		if err := p.Serve(conn); err != nil {
			w.serveMu.Lock()
			w.serveErrs = append(w.serveErrs, err)
			w.serveMu.Unlock()
		}
	}()
}

// dialDirect opens one fresh in-memory pipe per participant as the routes
// of the next stream.
func (w *world) dialDirect() {
	w.routes = make([]transport.Conn, len(w.parts))
	for i, p := range w.parts {
		sup, part := transport.Pipe(transport.WithBuffer(8))
		w.serve(p, part)
		w.physical = append(w.physical, sup)
		w.routes[i] = w.tr.wrap(sup)
	}
}

// redial ends the current routes — a participant's serve loop exits with
// its session — and opens fresh ones, so at most one physical connection
// per participant is ever open.
func (w *world) redial() {
	for _, c := range w.routes {
		_ = c.Close()
	}
	w.serveWG.Wait()
	w.dialDirect()
}

// openWAN builds the brokered topology: ONE TCP loopback link between the
// supervisor and the hub, delayed at both ends, carrying every route
// multiplexed, and clean in-memory pipes from the hub to the participants.
func (w *world) openWAN() error {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	type accepted struct {
		conn transport.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	supRaw, dialErr := transport.Dial(ln.Addr())
	if dialErr != nil {
		_ = ln.Close()
		if a := <-acc; a.conn != nil {
			_ = a.conn.Close()
		}
		return dialErr
	}
	a := <-acc
	_ = ln.Close()
	if a.err != nil {
		_ = supRaw.Close()
		return a.err
	}
	w.physical = append(w.physical, supRaw)
	w.hub = grid.NewBrokerHub()
	hubSide := transport.WithLatency(a.conn, w.sp.wanLatency)
	attached := make(chan error, 1)
	go func() { attached <- w.hub.Attach(hubSide) }()
	// The traced wrapper sits outside the delay, so the time it sees a Send
	// blocked includes the link's latency, as the mux writer does.
	mux, err := grid.OpenMux(w.tr.wrap(transport.WithLatency(supRaw, w.sp.wanLatency)), "supervisor")
	if err != nil {
		_ = supRaw.Close()
		<-attached
		return err
	}
	w.mux = mux
	if err := <-attached; err != nil {
		return err
	}
	// The hub parks one registration per identity, and each registration
	// replaces the previous one: register a worker's next link only after
	// its earlier routes have bound, or a pending route waits out the bind
	// timeout.
	for r := 0; r < w.sp.routes; r++ {
		for _, p := range w.parts {
			if err := w.awaitBinds(p.ID(), int64(r)); err != nil {
				return err
			}
			hubDown, part := transport.Pipe(transport.WithBuffer(8))
			if err := grid.HelloWorker(part, p.ID()); err != nil {
				return err
			}
			if err := w.hub.Attach(hubDown); err != nil {
				return err
			}
			w.serve(p, part)
			conn, err := mux.OpenRoute(p.ID())
			if err != nil {
				return err
			}
			w.routes = append(w.routes, conn)
		}
	}
	for _, p := range w.parts {
		if err := w.awaitBinds(p.ID(), int64(w.sp.routes)); err != nil {
			return err
		}
	}
	return nil
}

func (w *world) awaitBinds(worker string, n int64) error {
	if n == 0 {
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := w.hub.WorkerStats(worker); ok && st.Binds >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("route %d to %s did not bind within 5s", n, worker)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close tears the deployment down and waits for every goroutine it
// started.
func (w *world) close() {
	for _, c := range w.routes {
		_ = c.Close()
	}
	if w.mux != nil {
		_ = w.mux.Close()
	}
	if w.hub != nil {
		_ = w.hub.Close()
	}
	for _, c := range w.physical {
		_ = c.Close()
	}
	w.serveWG.Wait()
}

// serveError reports the first error a participant's serve loop returned.
func (w *world) serveError() error {
	w.serveMu.Lock()
	defer w.serveMu.Unlock()
	return errors.Join(w.serveErrs...)
}

// wire sums bytes and frames over the supervisor-side physical connections.
func (w *world) wire() (bytes, sent, recv int64) {
	for _, c := range w.physical {
		st := c.Stats()
		bytes += st.BytesSent() + st.BytesRecv()
		sent += st.MsgsSent()
		recv += st.MsgsRecv()
	}
	return bytes, sent, recv
}

// participantEvals sums f evaluations over the participants.
func (w *world) participantEvals() int64 {
	var n int64
	for _, p := range w.parts {
		n += p.Totals().FEvals
	}
	return n
}

// checkpointBytes sums the sizes of the files in the checkpoint directory.
func (w *world) checkpointBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(w.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// removeDir deletes the world's checkpoint directory.
func (w *world) removeDir() error { return os.RemoveAll(w.dir) }
