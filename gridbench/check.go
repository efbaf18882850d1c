package main

import (
	"fmt"
	"sync"
	"time"

	"uncheatgrid/internal/grid"
)

// maxFailureNotes bounds how many failure reasons a run keeps for printing.
const maxFailureNotes = 8

// checker generates a phase's tasks, records when each was drawn, and
// checks every outcome as it arrives: the verdict matches the ground truth
// (rejected ⇔ the schedule hands the task to the lazy cheater), each task
// is decided exactly once (once per replica when replicated), and an
// accepted (NI-)CBS task cost the supervisor exactly m evaluations.
type checker struct {
	sp       workloadSpec
	taskSeed uint64
	sched    *cheatSchedule
	tr       *tracer

	mu       sync.Mutex
	pending  map[uint64]*pendingTask
	drawn    uint64 // tasks drawn; IDs are 0..drawn-1
	stopAt   uint64 // first index refused once the deadline passed
	stopped  bool
	ok       int64
	accepted int64
	rejected int64
	failed   int64
	notes    []string
	// latencies are draw-to-outcome times of the correctly decided tasks,
	// and done their completion times (Unix ns).
	latencies []float64
	done      []int64
	// perLink counts decided tasks per pinned connection (task i runs on
	// connection i mod links), the basis of the window-count check.
	perLink []int64
	// outcomeEvals sums the per-outcome supervisor evaluations, reconciled
	// against the pool's total after the run.
	outcomeEvals    int64
	replicaOutcomes int64
}

type pendingTask struct {
	drawn   time.Time
	arrived int
	seen    uint64 // replica indices that arrived
	lazy    bool
	bad     bool
}

func newChecker(sp workloadSpec, seed uint64, sched *cheatSchedule, tr *tracer) *checker {
	return &checker{
		sp:       sp,
		taskSeed: mix(seed ^ saltTaskSeed),
		sched:    sched,
		tr:       tr,
		pending:  make(map[uint64]*pendingTask),
		perLink:  make([]int64, sp.totalRoutes()),
	}
}

// task is the i-th generated task: a contiguous window of the synthetic
// workload's input domain, so the task ID is recoverable from any input.
func (c *checker) task(i uint64) grid.Task {
	return grid.Task{
		ID:       i,
		Start:    i * c.sp.taskSize,
		N:        c.sp.taskSize,
		Workload: "synthetic",
		Seed:     c.taskSeed,
	}
}

// source feeds the indices of one stream, [base, end), and refuses every
// index from the first one requested after the deadline (zero: none). The
// first index is always drawn, so no stream runs empty: a run cut by the
// deadline then has the same stream boundaries as a run of its task count.
func (c *checker) source(base, end uint64, deadline time.Time) grid.TaskSource {
	return func(i uint64) (grid.Task, bool) {
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		if i >= end || (c.stopped && i >= c.stopAt) {
			return grid.Task{}, false
		}
		if i > base && !deadline.IsZero() && now.After(deadline) {
			c.stopped, c.stopAt = true, i
			return grid.Task{}, false
		}
		c.drawLocked(i, now)
		return c.task(i), true
	}
}

// drawBatch records a replicated batch as drawn at one instant.
func (c *checker) drawBatch(tasks []grid.Task) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tasks {
		c.drawLocked(t.ID, now)
	}
}

func (c *checker) drawLocked(i uint64, now time.Time) {
	if _, ok := c.pending[i]; ok || i < c.drawn {
		return // consulted again for an index already drawn
	}
	c.pending[i] = &pendingTask{drawn: now}
	c.drawn = i + 1
}

func (c *checker) failLocked(format string, args ...any) {
	c.failed++
	if len(c.notes) < maxFailureNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// outcome checks one arrived outcome.
func (c *checker) outcome(o *grid.TaskOutcome) {
	now := time.Now()
	id := o.Task.ID
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.pending[id]
	if pt == nil {
		c.failLocked("task %d: outcome for a task not in flight (duplicate or never drawn)", id)
		return
	}
	want := 1
	if c.sp.replicas > 0 {
		want = c.sp.replicas
		c.replicaOutcomes++
	}
	if o.Replica < 0 || o.Replica >= want || pt.seen&(1<<o.Replica) != 0 {
		c.failLocked("task %d: duplicate or out-of-range replica %d", id, o.Replica)
		return
	}
	pt.seen |= 1 << o.Replica
	if pt.arrived == 0 {
		pt.lazy = c.sched.takes(id)
	}
	pt.arrived++
	c.outcomeEvals += o.VerifyEvals
	switch {
	case o.Verdict.Accepted == pt.lazy:
		pt.bad = true
		if len(c.notes) < maxFailureNotes {
			c.notes = append(c.notes, fmt.Sprintf("task %d: accepted=%v but lazy=%v (%s)",
				id, o.Verdict.Accepted, pt.lazy, o.Verdict.Reason))
		}
	case o.Verdict.Accepted && c.sp.replicas == 0 && o.VerifyEvals != int64(c.sp.m):
		pt.bad = true
		if len(c.notes) < maxFailureNotes {
			c.notes = append(c.notes, fmt.Sprintf("task %d: supervisor spent %d evals, cost model says m=%d",
				id, o.VerifyEvals, c.sp.m))
		}
	}
	if pt.arrived < want {
		return
	}
	delete(c.pending, id)
	if pt.bad {
		c.failed++
		return
	}
	c.ok++
	if o.Verdict.Accepted {
		c.accepted++
	} else {
		c.rejected++
	}
	c.perLink[id%uint64(len(c.perLink))]++
	c.latencies = append(c.latencies, float64(now.Sub(pt.drawn))/float64(time.Millisecond))
	c.done = append(c.done, now.UnixNano())
	c.tr.endTask(id, pt.drawn, now)
}

// finish counts every drawn task without a complete outcome as failed.
func (c *checker) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := range c.pending {
		c.failLocked("task %d: no outcome", id)
	}
	c.pending = make(map[uint64]*pendingTask)
}

// fail records a run-level check failure.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(format, args...)
}

func (c *checker) next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drawn
}

func (c *checker) deadlineHit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}
