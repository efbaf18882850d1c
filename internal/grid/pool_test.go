package grid

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/transport"
)

// poolFixture wires n participants (serving on their own goroutines) and
// returns their supervisor-side connections plus a shutdown func.
func poolFixture(t *testing.T, n int, factory func(i int) ProducerFactory) ([]transport.Conn, func()) {
	t.Helper()
	conns := make([]transport.Conn, n)
	serveErrs := make([]chan error, n)
	for i := 0; i < n; i++ {
		p, err := NewParticipant(fmt.Sprintf("p%d", i), factory(i))
		if err != nil {
			t.Fatalf("NewParticipant: %v", err)
		}
		supConn, partConn := transport.Pipe(transport.WithBuffer(8))
		conns[i] = supConn
		serveErrs[i] = make(chan error, 1)
		go func(ch chan error) { ch <- p.Serve(partConn) }(serveErrs[i])
	}
	shutdown := func() {
		t.Helper()
		for _, c := range conns {
			_ = c.Close()
		}
		for i, ch := range serveErrs {
			if err := <-ch; err != nil {
				t.Errorf("participant %d serve: %v", i, err)
			}
		}
	}
	return conns, shutdown
}

// poolTasks builds one synthetic task per index with distinct IDs/windows.
func poolTasks(n int, size uint64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID:       uint64(i),
			Start:    uint64(i) * size,
			N:        size,
			Workload: "synthetic",
			Seed:     7,
		}
	}
	return tasks
}

// TestPoolRunsManyParticipantsConcurrently is the headline concurrency
// test: 12 participants verified at once, honest ones accepted, cheaters
// caught, eval/byte aggregation consistent. Run under -race it also proves
// the engine clean of data races.
func TestPoolRunsManyParticipantsConcurrently(t *testing.T) {
	const participants = 12
	cheaterAt := func(i int) bool { return i%3 == 2 }
	conns, shutdown := poolFixture(t, participants, func(i int) ProducerFactory {
		if cheaterAt(i) {
			// r = 0.3, m = 20: survival probability ~3e-11.
			return SemiHonestFactory(0.3, uint64(100+i))
		}
		return HonestFactory
	})

	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 20},
		Seed: 42,
	}, participants)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}

	tasks := poolTasks(participants, 256)
	assignments := make([]Assignment, participants)
	for i := range assignments {
		assignments[i] = Assignment{Conn: conns[i], Task: tasks[i]}
	}
	outcomes, err := pool.RunTasks(context.Background(), assignments)
	shutdown()
	if err != nil {
		t.Fatalf("RunTasks: %v", err)
	}

	var sent, recv, evals int64
	for i, outcome := range outcomes {
		if outcome == nil {
			t.Fatalf("outcome %d is nil", i)
		}
		if outcome.Task.ID != tasks[i].ID {
			t.Fatalf("outcome %d carries task %d; order not preserved", i, outcome.Task.ID)
		}
		if cheaterAt(i) == outcome.Verdict.Accepted {
			t.Errorf("participant %d (cheater=%v): accepted=%v, reason=%q",
				i, cheaterAt(i), outcome.Verdict.Accepted, outcome.Verdict.Reason)
		}
		sent += outcome.BytesSent
		recv += outcome.BytesRecv
		evals += outcome.VerifyEvals
	}
	if pool.BytesSent() != sent || pool.BytesRecv() != recv {
		t.Errorf("pool counters sent=%d recv=%d, outcome sums sent=%d recv=%d",
			pool.BytesSent(), pool.BytesRecv(), sent, recv)
	}
	if pool.VerifyEvals() != evals {
		t.Errorf("pool VerifyEvals = %d, outcome sum = %d", pool.VerifyEvals(), evals)
	}
	if evals == 0 {
		t.Error("no verification evaluations recorded")
	}
}

// TestPoolSerializesSharedConnection gives one participant several tasks:
// the pool must keep that connection's protocol exchanges ordered.
func TestPoolSerializesSharedConnection(t *testing.T) {
	conns, shutdown := poolFixture(t, 1, func(int) ProducerFactory { return HonestFactory })
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
		Seed: 1,
	}, 8)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	tasks := poolTasks(6, 64)
	assignments := make([]Assignment, len(tasks))
	for i, task := range tasks {
		assignments[i] = Assignment{Conn: conns[0], Task: task}
	}
	outcomes, err := pool.RunTasks(context.Background(), assignments)
	shutdown()
	if err != nil {
		t.Fatalf("RunTasks on shared conn: %v", err)
	}
	for i, outcome := range outcomes {
		if !outcome.Verdict.Accepted {
			t.Fatalf("task %d rejected on shared conn: %s", i, outcome.Verdict.Reason)
		}
	}
}

// TestPoolMatchesSerialSupervisor runs the same assignments serially and
// pooled: per-task seed derivation must make verdicts, traffic, and eval
// counts identical.
func TestPoolMatchesSerialSupervisor(t *testing.T) {
	const participants = 8
	factory := func(i int) ProducerFactory {
		if i%2 == 1 {
			return SemiHonestFactory(0.5, uint64(i))
		}
		return HonestFactory
	}
	cfg := SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 16}, Seed: 9}
	tasks := poolTasks(participants, 128)

	type digest struct {
		Verdict     Verdict
		BytesSent   int64
		BytesRecv   int64
		VerifyEvals int64
		CheatIndex  int64
	}
	digestOf := func(o *TaskOutcome) digest {
		return digest{o.Verdict, o.BytesSent, o.BytesRecv, o.VerifyEvals, o.CheatIndex}
	}

	// Serial reference.
	serial := make([]digest, participants)
	{
		conns, shutdown := poolFixture(t, participants, factory)
		sup, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		for i := range tasks {
			outcome, err := sup.RunTask(conns[i], tasks[i])
			if err != nil {
				t.Fatalf("serial RunTask %d: %v", i, err)
			}
			serial[i] = digestOf(outcome)
		}
		shutdown()
	}

	// Pooled run over a fresh, identically-seeded population.
	conns, shutdown := poolFixture(t, participants, factory)
	pool, err := NewSupervisorPool(cfg, 4)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	assignments := make([]Assignment, participants)
	for i := range assignments {
		assignments[i] = Assignment{Conn: conns[i], Task: tasks[i]}
	}
	outcomes, err := pool.RunTasks(context.Background(), assignments)
	shutdown()
	if err != nil {
		t.Fatalf("pooled RunTasks: %v", err)
	}
	for i, outcome := range outcomes {
		if got := digestOf(outcome); !reflect.DeepEqual(got, serial[i]) {
			t.Errorf("task %d: pooled %+v != serial %+v", i, got, serial[i])
		}
	}
}

// TestPoolRejectsBadConfig covers constructor and input validation.
func TestPoolRejectsBadConfig(t *testing.T) {
	// Double-check pools are legal (RunTasksStream replicates them), but
	// the per-connection RunTasks batch API cannot express the replica
	// barrier and refuses the scheme.
	dcPool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeDoubleCheck, M: 1},
	}, 4)
	if err != nil {
		t.Fatalf("double-check pool: %v", err)
	}
	dcConn, _ := transport.Pipe()
	if _, err := dcPool.RunTasks(context.Background(),
		[]Assignment{{Conn: dcConn, Task: poolTasks(1, 64)[0]}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("double-check RunTasks: err = %v, want ErrBadConfig", err)
	}
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 0) // 0 workers defaults to NumCPU
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	if _, err := pool.RunTasks(context.Background(),
		[]Assignment{{Conn: nil, Task: poolTasks(1, 64)[0]}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil conn: err = %v, want ErrBadConfig", err)
	}
	outcomes, err := pool.RunTasks(context.Background(), nil)
	if err != nil || outcomes != nil {
		t.Fatalf("empty assignments: outcomes=%v err=%v, want nil/nil", outcomes, err)
	}
}

// TestPoolHonorsCancelledContext starts with an already-cancelled context:
// no task may run and the context error must surface.
func TestPoolHonorsCancelledContext(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	defer shutdown()
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := poolTasks(2, 64)
	_, err = pool.RunTasks(ctx, []Assignment{
		{Conn: conns[0], Task: tasks[0]},
		{Conn: conns[1], Task: tasks[1]},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPoolPropagatesTransportErrors closes a connection mid-pool: the
// failure must come back as an error, not a verdict.
func TestPoolPropagatesTransportErrors(t *testing.T) {
	conns, shutdown := poolFixture(t, 2, func(int) ProducerFactory { return HonestFactory })
	pool, err := NewSupervisorPool(SupervisorConfig{
		Spec: SchemeSpec{Kind: SchemeCBS, M: 5},
	}, 2)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	_ = conns[1].Close()
	tasks := poolTasks(2, 64)
	_, err = pool.RunTasks(context.Background(), []Assignment{
		{Conn: conns[0], Task: tasks[0]},
		{Conn: conns[1], Task: tasks[1]},
	})
	if err == nil {
		t.Fatal("RunTasks succeeded over a closed connection")
	}
	_ = conns[0].Close()
	// Participant 1's serve loop sees its peer closed and exits cleanly;
	// only drain participant 0 via the fixture's shutdown.
	shutdown()
}

// TestTaskSeedIndependence pins the per-task derivation: distinct task IDs
// yield distinct streams, and the same ID always yields the same stream.
func TestTaskSeedIndependence(t *testing.T) {
	if taskSeed(1, 1) == taskSeed(1, 2) {
		t.Error("tasks 1 and 2 share a seed")
	}
	if taskSeed(1, 1) == taskSeed(2, 1) {
		t.Error("supervisor seeds 1 and 2 collide on task 1")
	}
	if taskSeed(5, 9) != taskSeed(5, 9) {
		t.Error("taskSeed is not deterministic")
	}
}

// TestTaskStreamChallengesDeterministic pins what the per-task stream is
// for: equal (seed, task ID) pairs draw equal CBS challenges, whichever
// supervisor instance draws them, and distinct task IDs draw different ones.
func TestTaskStreamChallengesDeterministic(t *testing.T) {
	cfg := SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 16}, Seed: 42}
	challenge := func(id uint64) []uint64 {
		t.Helper()
		s, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatalf("NewSupervisor: %v", err)
		}
		v, err := core.NewVerifier(core.Commitment{Root: make([]byte, 32), N: 1 << 20},
			core.WithRand(s.newTaskRun(Task{ID: id, N: 1 << 20}).rng))
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		ch, err := v.Challenge(cfg.Spec.M)
		if err != nil {
			t.Fatalf("Challenge: %v", err)
		}
		return ch.Indices
	}
	if a, b := challenge(7), challenge(7); !slices.Equal(a, b) {
		t.Errorf("task 7 drew %v, then %v", a, b)
	}
	if a, b := challenge(7), challenge(8); slices.Equal(a, b) {
		t.Errorf("tasks 7 and 8 drew the same challenge %v", a)
	}
}
