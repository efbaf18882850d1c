package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"uncheatgrid/internal/grid"
)

// exactCounters are the counts a run's seed and task count fix exactly:
// a traced and an untraced run of the same tasks must agree on all of them.
type exactCounters struct {
	Tasks, Accepted, Rejected, Cheated int64
	ParticipantEvals, VerifyEvals      int64
	ReplicaOutcomes                    int64
	WindowSettled, WindowViolations    uint64
	WindowPending                      int
	Segments                           int
	CheckpointBytes                    int64
}

// phaseResult is everything one phase measured.
type phaseResult struct {
	attempted, ok, failed int64
	notes                 []string
	latencies             []float64

	wall  time.Duration
	cpu   time.Duration
	gcCPU float64 // seconds

	mallocs, allocBytes uint64
	numGC               uint32

	// windows split a deadline-bound phase into equal intervals.
	windows []window

	wireBytes, framesSent, framesRecv int64
	barriers                          []time.Duration
	exact                             exactCounters

	// Layer counters read before teardown.
	poolBytesRecv                              int64
	relayedMsgs, relayedBytes, ctrlMsgs        int64
	muxOverheadBytes, creditWindow, stalls     int64
	grantFrames, creditGranted                 int64
	toWorkerIn, toWorkerOut, toSupIn, toSupOut int64
	window                                     grid.WindowStats
	checkpointBytes                            int64
	retainedHeap                               uint64
	goroutinesMax                              int
}

// runPhase builds a fresh world and drives one closed-loop phase through
// it: until the deadline when limit is 0, else exactly limit tasks.
func runPhase(sp workloadSpec, seed uint64, tr *tracer, dir string, deadline time.Time, limit uint64) (*phaseResult, error) {
	runtime.GC()
	w, err := newWorld(sp, seed, tr, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() { _ = w.removeDir() }()
	chk := newChecker(sp, seed, w.sched, tr)
	res := &phaseResult{}

	var sampler *goroutineSampler
	if tr != nil {
		sampler = startGoroutineSampler()
	}
	wireBytes, framesSent, framesRecv := w.wire()
	before := snapshotRuntime()
	start := time.Now()
	var cpu *cpuSampler
	if !deadline.IsZero() {
		cpu = startCPUSampler(start, deadline.Sub(start)/measureWindows)
	}
	var runErr error
	if sp.replicas > 0 {
		runErr = runReplicatedStreams(w, chk, deadline, limit, res)
	} else {
		runErr = runSourceStreams(w, chk, deadline, limit, res)
	}
	end := time.Now()
	after := snapshotRuntime()
	if cpu != nil {
		cpu.stop()
	}
	if sampler != nil {
		res.goroutinesMax = sampler.stop()
	}
	if runErr != nil {
		chk.fail("%v", runErr)
	}
	chk.finish()

	res.wall = end.Sub(start)
	res.cpu = after.cpu - before.cpu
	res.gcCPU = after.gcCPU - before.gcCPU
	res.mallocs = after.mallocs - before.mallocs
	res.allocBytes = after.allocBytes - before.allocBytes
	res.numGC = after.numGC - before.numGC
	res.wireBytes, res.framesSent, res.framesRecv = w.wire()
	res.wireBytes -= wireBytes
	res.framesSent -= framesSent
	res.framesRecv -= framesRecv
	collectLayers(w, chk, res)
	if tr != nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// Leave out what the benchmark itself holds per task: latency and
		// completion samples, and the spans.
		chk.mu.Lock()
		own := 8*uint64(cap(chk.latencies)+cap(chk.done)) + uint64(len(tr.spans))*uint64(unsafe.Sizeof(taskSpan{}))
		chk.mu.Unlock()
		res.retainedHeap = ms.HeapAlloc - min(own, ms.HeapAlloc)
	}
	w.close()
	if err := w.serveError(); err != nil {
		chk.fail("participant serve: %v", err)
	}

	chk.mu.Lock()
	defer chk.mu.Unlock()
	res.attempted = int64(chk.drawn)
	res.ok = chk.ok
	res.failed = chk.failed
	res.notes = chk.notes
	res.latencies = chk.latencies
	if cpu != nil {
		res.windows = cpu.windows(chk.done, deadline)
	}
	res.exact.Tasks = chk.ok
	res.exact.Accepted = chk.accepted
	res.exact.Rejected = chk.rejected
	res.exact.ReplicaOutcomes = chk.replicaOutcomes
	return res, nil
}

// runSourceStreams runs RunTaskSource streams: one for the whole phase, or one
// per segment over fresh connections ending in a checkpoint barrier.
func runSourceStreams(w *world, chk *checker, deadline time.Time, limit uint64, res *phaseResult) error {
	sp := w.sp
	for seg := 0; ; seg++ {
		next := chk.next()
		end := uint64(math.MaxUint64)
		if limit > 0 {
			end = limit
		}
		var opts []grid.StreamOption
		if sp.segmentTasks > 0 {
			end = min(end, next+sp.segmentTasks)
			opts = append(opts, grid.WithPinnedPlacement(), grid.WithSourceBase(next),
				grid.WithDrainCheckpoint(uint64(seg+1)))
		}
		if w.ledgers != nil {
			opts = append(opts, grid.WithWindowSettle(w.ledgers))
		}
		if seg > 0 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil
			}
			w.redial()
		}
		stream, err := w.pool.RunTaskSource(context.Background(), w.routes, chk.source(next, end, deadline), sp.window, opts...)
		if err != nil {
			return err
		}
		var last time.Time
		for so := range stream.Outcomes() {
			chk.outcome(so.Outcome)
			last = time.Now()
		}
		closed := time.Now()
		if err := stream.Err(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		res.exact.Segments++
		if sp.segmentTasks > 0 && !last.IsZero() {
			res.barriers = append(res.barriers, closed.Sub(last))
		}
		if chk.deadlineHit() || chk.next() < end || (limit > 0 && chk.next() >= limit) {
			return nil
		}
	}
}

// runReplicatedStreams runs replicated double-check: batches of the pool's
// default high-water mark, each one RunTasksStream call over fresh
// connections, every task of a batch drawn when the batch is submitted.
func runReplicatedStreams(w *world, chk *checker, deadline time.Time, limit uint64, res *phaseResult) error {
	sp := w.sp
	for next := uint64(0); ; {
		if limit > 0 && next >= limit || limit == 0 && time.Now().After(deadline) {
			return nil
		}
		n := sp.batchTasks()
		if limit > 0 {
			n = min(n, limit-next)
		}
		if next > 0 {
			w.redial()
		}
		tasks := make([]grid.Task, n)
		for j := range tasks {
			tasks[j] = chk.task(next + uint64(j))
		}
		chk.drawBatch(tasks)
		stream, err := w.pool.RunTasksStream(context.Background(), w.routes, tasks, sp.window, grid.WithReplicas(sp.replicas))
		if err != nil {
			return err
		}
		for so := range stream.Outcomes() {
			chk.outcome(so.Outcome)
		}
		if err := stream.Err(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		res.exact.Segments++
		next += n
	}
}

// collectLayers reads the world's layer counters and runs the run-level
// checks: window ledgers, hub and mux integrity, and the supervisor's
// evaluation total.
func collectLayers(w *world, chk *checker, res *phaseResult) {
	sp := w.sp
	res.poolBytesRecv = w.pool.BytesRecv()
	res.exact.ParticipantEvals = w.participantEvals()
	res.exact.VerifyEvals = w.pool.VerifyEvals()
	res.exact.Cheated = w.sched.cheated.Load()

	chk.mu.Lock()
	outcomeEvals := chk.outcomeEvals
	perLink := append([]int64(nil), chk.perLink...)
	chk.mu.Unlock()
	if res.exact.VerifyEvals != outcomeEvals {
		chk.fail("supervisor total %d evals, outcomes sum to %d", res.exact.VerifyEvals, outcomeEvals)
	}

	for i, led := range w.ledgers {
		st := led.Stats()
		res.window.Settled += st.Settled
		res.window.Violations += st.Violations
		res.window.Pending += st.Pending
		if st.Violations != 0 {
			chk.fail("link %d: %d window violations: %s", i, st.Violations, st.LastViolation)
		}
		if want := uint64(perLink[i]) / uint64(sp.windowTasks); st.Settled != want {
			chk.fail("link %d: %d windows settled, want ⌊%d/%d⌋ = %d", i, st.Settled, perLink[i], sp.windowTasks, want)
		}
	}
	res.exact.WindowSettled = res.window.Settled
	res.exact.WindowViolations = res.window.Violations
	res.exact.WindowPending = res.window.Pending

	if sp.segmentTasks > 0 {
		b, err := w.checkpointBytes()
		if err != nil {
			chk.fail("checkpoint files: %v", err)
		}
		res.checkpointBytes = b
		res.exact.CheckpointBytes = b
	}

	if w.hub == nil {
		return
	}
	h, m := w.hub, w.mux
	if n := h.OrphanedFrames(); n != 0 {
		chk.fail("hub orphaned %d frames", n)
	}
	if n := h.MuxCorruptFrames(); n != 0 {
		chk.fail("hub saw %d corrupt mux frames", n)
	}
	if n := m.OrphanedFrames(); n != 0 {
		chk.fail("mux orphaned %d frames", n)
	}
	res.relayedMsgs = h.RelayedMessages()
	res.relayedBytes = h.RelayedBytes()
	res.ctrlMsgs = h.ControlMessages() + h.ControlIngressMessages()
	res.muxOverheadBytes = h.MuxOverheadIngressBytes() + h.MuxOverheadEgressBytes()
	res.creditWindow = h.CreditWindowBytes()
	res.grantFrames = m.GrantFrames()
	res.creditGranted = m.CreditGrantedBytes()
	for _, p := range w.parts {
		st, ok := h.WorkerStats(p.ID())
		if !ok {
			continue
		}
		res.toWorkerIn += st.ToWorker.IngressMsgs
		res.toWorkerOut += st.ToWorker.EgressMsgs
		res.toSupIn += st.ToSupervisor.IngressMsgs
		res.toSupOut += st.ToSupervisor.EgressMsgs
		res.stalls += st.ToSupervisorStalls
	}
}

// runtimeSnapshot is the process-wide state a phase is measured against.
type runtimeSnapshot struct {
	cpu                 time.Duration
	gcCPU               float64
	mallocs, allocBytes uint64
	numGC               uint32
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func snapshotRuntime() runtimeSnapshot {
	s := runtimeSnapshot{cpu: processCPU()}
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return s
}

// goroutineSampler records the peak goroutine count of a traced phase.
type goroutineSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    int
}

func startGoroutineSampler() *goroutineSampler {
	s := &goroutineSampler{stopCh: make(chan struct{}), max: runtime.NumGoroutine()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.max = max(s.max, runtime.NumGoroutine())
			}
		}
	}()
	return s
}

func (s *goroutineSampler) stop() int {
	close(s.stopCh)
	s.wg.Wait()
	return s.max
}

// measureWindows is how many equal windows a measured phase is split into.
const measureWindows = 10

// window is one interval of a measured phase.
type window struct {
	dur   time.Duration
	cpu   time.Duration
	tasks int
}

// cpuSampler samples the process CPU time at each window boundary.
type cpuSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	times  []time.Time
	cpus   []time.Duration
}

func startCPUSampler(start time.Time, period time.Duration) *cpuSampler {
	s := &cpuSampler{stopCh: make(chan struct{})}
	s.times = append(s.times, start)
	s.cpus = append(s.cpus, processCPU())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.cpus = append(s.cpus, processCPU())
				s.times = append(s.times, time.Now())
			}
		}
	}()
	return s
}

func (s *cpuSampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
}

// windows pairs consecutive samples taken before the deadline with the
// tasks completed between them.
func (s *cpuSampler) windows(done []int64, deadline time.Time) []window {
	var ws []window
	for k := 0; k+1 < len(s.times) && !s.times[k+1].After(deadline.Add(time.Millisecond)); k++ {
		from, to := s.times[k].UnixNano(), s.times[k+1].UnixNano()
		n := 0
		for _, d := range done {
			if d >= from && d < to {
				n++
			}
		}
		ws = append(ws, window{dur: s.times[k+1].Sub(s.times[k]), cpu: s.cpus[k+1] - s.cpus[k], tasks: n})
	}
	return ws
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
