package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/baseline"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// tracer collects the spans of a traced phase, recorded only from the
// benchmark's side of each layer boundary: a transport.Conn wrapper on the
// supervisor's physical connections, a workload.Function wrapper handed to
// the participants, and one span per task from draw to outcome. A nil
// *tracer records nothing.
type tracer struct {
	taskSize uint64
	origin   time.Time
	// spans is indexed by task ID; the traced phase runs a known count.
	spans []taskSpan

	evalNs, sendNs, recvNs atomic.Int64
}

// taskSpan is one task's span: draw and outcome times relative to the
// tracer's origin, and its child participant-eval time.
type taskSpan struct {
	drawNs, endNs int64
	evalNs        atomic.Int64
}

func newTracer(taskSize, tasks uint64) *tracer {
	return &tracer{taskSize: taskSize, origin: time.Now(), spans: make([]taskSpan, tasks)}
}

func (t *tracer) wrap(c transport.Conn) transport.Conn {
	if t == nil {
		return c
	}
	return &tracedConn{Conn: c, tr: t}
}

func (t *tracer) endTask(id uint64, drawn, done time.Time) {
	if t == nil || id >= uint64(len(t.spans)) {
		return
	}
	t.spans[id].drawNs = int64(drawn.Sub(t.origin))
	t.spans[id].endNs = int64(done.Sub(t.origin))
}

// tracedConn times Send (busy: the caller is blocked writing) and Recv
// (wait: the caller is blocked until a frame arrives).
type tracedConn struct {
	transport.Conn
	tr *tracer
}

func (c *tracedConn) Send(m transport.Message) error {
	start := time.Now()
	err := c.Conn.Send(m)
	c.tr.sendNs.Add(int64(time.Since(start)))
	return err
}

func (c *tracedConn) Recv() (transport.Message, error) {
	start := time.Now()
	m, err := c.Conn.Recv()
	c.tr.recvNs.Add(int64(time.Since(start)))
	return m, err
}

// tracedFunc times every participant evaluation of f and charges it to the
// task that owns the input.
type tracedFunc struct {
	workload.Function
	tr *tracer
}

func (f tracedFunc) Eval(x uint64) []byte {
	start := time.Now()
	out := f.Function.Eval(x)
	d := int64(time.Since(start))
	f.tr.evalNs.Add(d)
	if id := x / f.tr.taskSize; id < uint64(len(f.tr.spans)) {
		f.tr.spans[id].evalNs.Add(d)
	}
	return out
}

// writeSpans writes the spans once, after the phase, as JSON lines: a
// header with the machine fingerprint and layer totals, then one line per
// task.
func (t *tracer) writeSpans(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	header["eval_ns"] = t.evalNs.Load()
	header["send_busy_ns"] = t.sendNs.Load()
	header["recv_wait_ns"] = t.recvNs.Load()
	if err := enc.Encode(header); err != nil {
		_ = f.Close()
		return err
	}
	type line struct {
		Task   int   `json:"task"`
		DrawNs int64 `json:"draw_ns"`
		EndNs  int64 `json:"end_ns"`
		EvalNs int64 `json:"eval_ns"`
	}
	for i := range t.spans {
		s := &t.spans[i]
		if err := enc.Encode(line{i, s.drawNs, s.endNs, s.evalNs.Load()}); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// replayTasks bounds how many of a run's tasks the replay re-executes.
const replayTasks = 64

// replayResult is the per-layer cost of the replayed tasks.
type replayResult struct {
	tasks                        int64
	buildNs, respondNs, verifyNs int64
	verifyRecomputeNs, sampleNs  int64
	compareNs                    int64
	responseBytes                int64
	mismatches                   []string
}

// replay re-executes a spread of the run's tasks, claims precomputed
// outside the timed region, through the layers the grid calls:
// core.NewProver (the Merkle build), Respond / RespondNonInteractive,
// Verify / VerifyNonInteractive with AcceptAnyOutput (audit paths only)
// and with RecomputeCheck (adding m f-evals), Chain.SampleIndices, and
// DoubleCheck.Compare. Each replayed verdict must match the ground truth.
func replay(sp workloadSpec, seed uint64, tasks uint64) replayResult {
	var r replayResult
	if tasks == 0 {
		return r
	}
	chk := newChecker(sp, seed, nil, nil)
	sched := newCheatSchedule(sp.cheatEvery, seed)
	stride := max(tasks/replayTasks, 1)
	var chain *hashchain.Chain
	if sp.scheme == grid.SchemeNICBS {
		c, err := hashchain.New(sp.chainIters)
		if err != nil {
			r.mismatches = append(r.mismatches, err.Error())
			return r
		}
		chain = c
	}
	for id := uint64(0); id < tasks && r.tasks < replayTasks; id += stride {
		task := chk.task(id)
		f, err := workload.New(task.Workload, task.Seed)
		if err != nil {
			r.mismatches = append(r.mismatches, err.Error())
			return r
		}
		lazy := sched.takes(id)
		claims := make([][]byte, task.N)
		for i := range claims {
			x := task.Start + uint64(i)
			if lazy && x%2 == 1 {
				claims[i] = fabricate(x)
			} else {
				claims[i] = f.Eval(x)
			}
		}
		r.tasks++
		if sp.scheme == grid.SchemeDoubleCheck {
			r.replayCompare(id, claims)
			continue
		}
		r.replayCBS(sp, seed, task, f, claims, chain, lazy)
	}
	return r
}

func (r *replayResult) replayCompare(id uint64, claims [][]byte) {
	other := make([][]byte, len(claims))
	for i, c := range claims {
		other[i] = append([]byte(nil), c...)
	}
	dc, err := baseline.NewDoubleCheck(2)
	if err != nil {
		r.mismatches = append(r.mismatches, err.Error())
		return
	}
	start := time.Now()
	v, err := dc.Compare([][][]byte{claims, other})
	r.compareNs += int64(time.Since(start))
	if err != nil || len(v.Dissenters) != 0 {
		r.mismatches = append(r.mismatches, fmt.Sprintf("replay task %d: honest replicas disagree (%v)", id, err))
	}
}

func (r *replayResult) replayCBS(sp workloadSpec, seed uint64, task grid.Task, f workload.Function, claims [][]byte, chain *hashchain.Chain, lazy bool) {
	fail := func(format string, args ...any) {
		r.mismatches = append(r.mismatches, fmt.Sprintf("replay task %d: ", task.ID)+fmt.Sprintf(format, args...))
	}
	start := time.Now()
	prover, err := core.NewProver(int(task.N), func(i uint64) []byte { return claims[i] })
	r.buildNs += int64(time.Since(start))
	if err != nil {
		fail("%v", err)
		return
	}
	rng := rand.New(rand.NewSource(int64(mix(seed ^ task.ID))))
	verifier, err := core.NewVerifier(prover.Commitment(), core.WithRand(rng))
	if err != nil {
		fail("%v", err)
		return
	}
	recompute := core.RecomputeCheck(func(i uint64) []byte { return f.Eval(task.Start + i) })

	var resp *core.Response
	var verify func(core.CheckFunc) error
	if chain != nil {
		start = time.Now()
		resp, err = prover.RespondNonInteractive(chain, sp.m)
		r.respondNs += int64(time.Since(start))
		verify = func(check core.CheckFunc) error { return verifier.VerifyNonInteractive(chain, sp.m, resp, check) }
		start = time.Now()
		_, serr := chain.SampleIndices(prover.Commitment().Root, sp.m, task.N)
		r.sampleNs += int64(time.Since(start))
		if serr != nil {
			fail("%v", serr)
		}
	} else {
		ch, cerr := verifier.Challenge(sp.m)
		if cerr != nil {
			fail("%v", cerr)
			return
		}
		start = time.Now()
		resp, err = prover.Respond(ch.Indices)
		r.respondNs += int64(time.Since(start))
		verify = func(check core.CheckFunc) error { return verifier.Verify(ch, resp, check) }
	}
	if err != nil {
		fail("%v", err)
		return
	}
	r.responseBytes += int64(resp.EncodedSize())

	start = time.Now()
	paths := verify(core.AcceptAnyOutput)
	r.verifyNs += int64(time.Since(start))
	start = time.Now()
	full := verify(recompute)
	r.verifyRecomputeNs += int64(time.Since(start))
	if paths != nil {
		fail("audit paths rejected: %v", paths)
	}
	if (full != nil) != lazy {
		fail("recompute verdict %v, lazy=%v", full, lazy)
	}
}
