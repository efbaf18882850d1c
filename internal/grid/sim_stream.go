package grid

// Long-horizon streaming simulation.
//
// A stream run replaces the fixed task list with a lazily-consulted source
// and splits the horizon into segments of CheckpointEvery tasks. Each
// segment is one RunTaskSource call with pinned round-robin placement (so
// the task→participant pairing is a pure function of the task index) and,
// when Spec.WindowTasks > 0, per-link rolling window commitments verified
// against persistent ledgers. A segment ends at the stream's drain
// barrier: every participant persists its durable state, then the
// coordinator writes its own checkpoint — progress cursor, verdicts,
// ledgers, and the cumulative counters of connections about to be torn
// down. KillAfter exercises the recovery path: the whole attempt is torn
// down mid-segment and rebuilt purely from the checkpoint files, and the
// final report must match an uninterrupted run's.
//
// Recovery discards, never reconciles: a restart reloads BOTH sides from
// their files (in-memory state of the killed attempt is dropped on the
// floor), and a mid-segment kill is only triggered while at least one
// segment task is unsettled — the drain barrier cannot have started, so
// participant files provably sit at the same sequence as the supervisor's.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"uncheatgrid/internal/transport"
)

// supervisorCheckpointPath names the coordinator's checkpoint file.
func supervisorCheckpointPath(dir string) string {
	return filepath.Join(dir, "supervisor.ckpt")
}

// streamSimState is the coordinator's durable progress: everything a
// restart needs that is not derivable from SimConfig. Byte counters are
// cumulative across attempts (each attempt's connections die with it), so
// the final report's totals cover the whole logical run.
type streamSimState struct {
	seq                uint64
	nextTask           int
	supEvals           int64
	supSent, supRecv   int64
	partSent, partRecv []int64
	ledgers            []*WindowLedger // nil when Spec.WindowTasks == 0
	verdicts           map[uint64]Verdict
	reports            map[uint64][]Report
}

func newStreamSimState(cfg SimConfig) (*streamSimState, error) {
	n := cfg.participants()
	st := &streamSimState{
		partSent: make([]int64, n),
		partRecv: make([]int64, n),
		verdicts: make(map[uint64]Verdict),
		reports:  make(map[uint64][]Report),
	}
	if cfg.Spec.WindowTasks > 0 {
		st.ledgers = make([]*WindowLedger, n)
		for i := range st.ledgers {
			led, err := NewWindowLedger(cfg.Spec)
			if err != nil {
				return nil, err
			}
			st.ledgers[i] = led
		}
	}
	return st, nil
}

// loadStreamState returns the checkpointed coordinator state, or a fresh
// one when no checkpoint directory is configured or no file exists yet.
func loadStreamState(cfg SimConfig) (*streamSimState, error) {
	st, err := newStreamSimState(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointDir == "" {
		return st, nil
	}
	payload, err := readCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir))
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if err := st.decode(cfg, payload); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *streamSimState) save(cfg SimConfig) error {
	payload, err := st.encode()
	if err != nil {
		return err
	}
	return writeCheckpointFile(supervisorCheckpointPath(cfg.CheckpointDir), payload)
}

func (st *streamSimState) encode() ([]byte, error) {
	var buf bytes.Buffer
	putUvarint(&buf, st.seq)
	putUvarint(&buf, uint64(st.nextTask))
	putUvarint(&buf, uint64(st.supEvals))
	putUvarint(&buf, uint64(st.supSent))
	putUvarint(&buf, uint64(st.supRecv))
	putUvarint(&buf, uint64(len(st.partSent)))
	for i := range st.partSent {
		putUvarint(&buf, uint64(st.partSent[i]))
		putUvarint(&buf, uint64(st.partRecv[i]))
		if st.ledgers == nil {
			buf.WriteByte(0)
			continue
		}
		buf.WriteByte(1)
		putBytes(&buf, st.ledgers[i].encodeState())
	}
	// Settled tasks are exactly [0, nextTask): segments complete in full
	// before a checkpoint is taken.
	for id := 0; id < st.nextTask; id++ {
		v, ok := st.verdicts[uint64(id)]
		if !ok {
			return nil, fmt.Errorf("grid: stream checkpoint: no verdict for settled task %d", id)
		}
		putBytes(&buf, encodeVerdict(v))
		putBytes(&buf, encodeReports(st.reports[uint64(id)]))
	}
	return buf.Bytes(), nil
}

func (st *streamSimState) decode(cfg SimConfig, payload []byte) error {
	bad := func(field string, err error) error {
		return fmt.Errorf("%w: supervisor %s: %v", ErrCheckpointCorrupt, field, err)
	}
	r := bytes.NewReader(payload)
	var err error
	if st.seq, err = binary.ReadUvarint(r); err != nil {
		return bad("seq", err)
	}
	var scalars [4]uint64
	for i, name := range []string{"next task", "evals", "bytes sent", "bytes recv"} {
		if scalars[i], err = binary.ReadUvarint(r); err != nil {
			return bad(name, err)
		}
	}
	st.nextTask = int(scalars[0])
	st.supEvals = int64(scalars[1])
	st.supSent = int64(scalars[2])
	st.supRecv = int64(scalars[3])
	n, err := binary.ReadUvarint(r)
	if err != nil || int(n) != len(st.partSent) {
		return fmt.Errorf("%w: checkpoint covers %d participants, pool has %d",
			ErrCheckpointCorrupt, n, len(st.partSent))
	}
	for i := 0; i < int(n); i++ {
		var counters [2]uint64
		for j, name := range []string{"participant sent", "participant recv"} {
			if counters[j], err = binary.ReadUvarint(r); err != nil {
				return bad(name, err)
			}
		}
		st.partSent[i], st.partRecv[i] = int64(counters[0]), int64(counters[1])
		hasLedger, err := r.ReadByte()
		if err != nil || hasLedger > 1 {
			return bad("ledger flag", err)
		}
		if (hasLedger == 1) != (st.ledgers != nil) {
			return fmt.Errorf("%w: checkpoint and config disagree on window commitments", ErrCheckpointCorrupt)
		}
		if hasLedger == 1 {
			data, err := getBytes(r)
			if err != nil {
				return bad("ledger", err)
			}
			if st.ledgers[i], err = restoreWindowLedger(cfg.Spec, data); err != nil {
				return err
			}
		}
	}
	if st.nextTask > cfg.Tasks {
		return fmt.Errorf("%w: checkpoint at task %d beyond the %d-task run", ErrCheckpointCorrupt, st.nextTask, cfg.Tasks)
	}
	for id := 0; id < st.nextTask; id++ {
		vb, err := getBytes(r)
		if err != nil {
			return bad("verdict", err)
		}
		v, err := decodeVerdict(vb)
		if err != nil {
			return bad("verdict", err)
		}
		rb, err := getBytes(r)
		if err != nil {
			return bad("reports", err)
		}
		reports, err := decodeReports(rb)
		if err != nil {
			return bad("reports", err)
		}
		st.verdicts[uint64(id)] = v
		if len(reports) > 0 {
			st.reports[uint64(id)] = reports
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: supervisor checkpoint: %d trailing bytes", ErrCheckpointCorrupt, r.Len())
	}
	return nil
}

// runStreamSim drives a streaming run to completion, restarting from the
// last durable checkpoint if the configured kill fires.
func runStreamSim(cfg SimConfig, supCfg SupervisorConfig) (*SimReport, error) {
	killAfter := cfg.KillAfter
	for {
		report, killed, err := runStreamAttempt(cfg, supCfg, killAfter)
		if err != nil {
			return nil, err
		}
		if !killed {
			return report, nil
		}
		killAfter = 0 // the crash happened; the restart runs to completion
	}
}

// restorePool restores every participant from its durable checkpoint and
// holds the pool to one consistent sequence: a file from a different point
// in time than the coordinator's would desynchronize the window cursors.
func restorePool(workers []*simWorker, seq uint64) error {
	for _, w := range workers {
		got, ok, err := w.participant.RestoreCheckpoint()
		if err != nil {
			return err
		}
		if !ok && seq != 0 {
			return fmt.Errorf("%w: supervisor checkpoint at seq %d but participant %s has none",
				ErrCheckpointCorrupt, seq, w.participant.ID())
		}
		if ok && got != seq {
			return fmt.Errorf("%w: participant %s checkpoint at seq %d, supervisor at %d",
				ErrCheckpointCorrupt, w.participant.ID(), got, seq)
		}
	}
	return nil
}

// runStreamAttempt executes one attempt: restore, run segments, and either
// finish (killed == false, report set) or die at the kill point
// (killed == true) leaving only the checkpoint files behind.
//
//gridlint:credit report assembly sums per-worker traffic totals once, at shutdown
func runStreamAttempt(cfg SimConfig, supCfg SupervisorConfig, killAfter int) (report *SimReport, killed bool, err error) {
	st, err := loadStreamState(cfg)
	if err != nil {
		return nil, false, err
	}

	var hub *BrokerHub
	var muxes *muxManager
	if cfg.Broker {
		hub = NewBrokerHub()
		muxes = newMuxManager(hub)
	}
	workers, err := buildPool(cfg, hub, muxes)
	if err != nil {
		if hub != nil {
			_ = hub.Close()
		}
		if muxes != nil {
			muxes.close()
		}
		return nil, false, err
	}
	cleanup := func() error {
		if hub != nil {
			_ = hub.Close()
		}
		if muxes != nil {
			muxes.close()
		}
		return shutdownPool(workers)
	}
	fail := func(ferr error) (*SimReport, bool, error) {
		_ = cleanup()
		return nil, false, ferr
	}

	// Restore every participant and hold the pool to one consistent
	// sequence: a file from a different point in time than the
	// coordinator's would desynchronize the window cursors.
	if rerr := restorePool(workers, st.seq); rerr != nil {
		return fail(rerr)
	}

	pool, err := NewSupervisorPool(supCfg, cfg.participants()*cfg.PipelineWindow)
	if err != nil {
		return fail(err)
	}
	evalsBase := st.supEvals
	supSentBase, supRecvBase := st.supSent, st.supRecv
	partSentBase := append([]int64(nil), st.partSent...)
	partRecvBase := append([]int64(nil), st.partRecv...)
	// syncTotals folds the attempt's live connection counters onto the
	// restored bases, making st's totals cover the whole logical run.
	syncTotals := func() {
		st.supEvals = evalsBase + pool.VerifyEvals()
		var sSent, sRecv int64
		for i, w := range workers {
			ps, pr := w.trafficTotals(true)
			st.partSent[i] = partSentBase[i] + ps
			st.partRecv[i] = partRecvBase[i] + pr
			ws, wr := w.trafficTotals(false)
			sSent += ws
			sRecv += wr
		}
		st.supSent = supSentBase + sSent
		st.supRecv = supRecvBase + sRecv
	}

	total := cfg.Tasks
	segSize := cfg.CheckpointEvery
	if segSize <= 0 {
		segSize = total
	}
	settled := st.nextTask
	firstSegment := true

	// A participant-crash drill keeps the supervisor alive across the kill,
	// so the attempt must be able to roll its OWN window ledgers back to the
	// last durable barrier: snapshot them (via the exported codec) whenever
	// st.seq advances, and restore from the copies on recovery.
	participantKill := cfg.KillTarget == KillTargetParticipant && killAfter > 0
	var ledgerSnaps [][]byte
	snapLedgers := func() {
		if !participantKill || st.ledgers == nil {
			return
		}
		ledgerSnaps = make([][]byte, len(st.ledgers))
		for i, led := range st.ledgers {
			ledgerSnaps[i] = led.Snapshot()
		}
	}
	snapLedgers()
	// recoverParticipants rebuilds the participant pool from its durable
	// checkpoint files after a crash. The aborted segment left every
	// participant's in-memory commitment chain ahead of the barrier, so the
	// whole pool rolls back together — exactly like a deployment restarting
	// its worker processes — while the surviving supervisor only rewinds its
	// ledgers. Byte counters rebase onto the checkpointed totals (the dead
	// pool's partial-segment traffic died with it); the eval base is NOT
	// rebased, because the supervisor genuinely re-pays verification of the
	// re-run tasks.
	recoverParticipants := func() error {
		_ = shutdownPool(workers) // serve errors from the crash are the point
		var rerr error
		if workers, rerr = buildPool(cfg, hub, muxes); rerr != nil {
			workers = nil
			return rerr
		}
		if rerr := restorePool(workers, st.seq); rerr != nil {
			return rerr
		}
		for i := range st.ledgers {
			led, rerr := RestoreWindowLedger(cfg.Spec, ledgerSnaps[i])
			if rerr != nil {
				return rerr
			}
			st.ledgers[i] = led
		}
		partSentBase = append(partSentBase[:0], st.partSent...)
		partRecvBase = append(partRecvBase[:0], st.partRecv...)
		supSentBase, supRecvBase = st.supSent, st.supRecv
		return nil
	}

	for st.nextTask < total {
		from := st.nextTask
		to := from + segSize
		if to > total {
			to = total
		}
		// Each segment runs over fresh connections: a participant's serve
		// loop exits with its pipelined session, and a restarted attempt
		// could not reuse a dead process's sockets anyway. buildPool already
		// dialed the first set.
		conns := make([]transport.Conn, len(workers))
		for i, w := range workers {
			if firstSegment {
				conns[i] = w.supConn()
			} else {
				conns[i] = w.dial(cfg)
			}
		}
		firstSegment = false

		// The source walks absolute task indices (WithSourceBase) so pinned
		// placement assigns task i to worker i mod n regardless of where the
		// segment boundaries fall — a checkpointed run pairs tasks and
		// participants exactly like an unsegmented one.
		end := uint64(to)
		source := func(i uint64) (Task, bool) {
			if i >= end {
				return Task{}, false
			}
			return taskFor(cfg, int(i)), true
		}
		opts := []StreamOption{WithPinnedPlacement(), WithSourceBase(uint64(from))}
		if st.ledgers != nil {
			opts = append(opts, WithWindowSettle(st.ledgers))
		}
		seq := uint64(to)
		if cfg.CheckpointDir != "" {
			opts = append(opts, WithDrainCheckpoint(seq))
		}

		ctx, cancel := context.WithCancel(context.Background())
		stream, serr := pool.RunTaskSource(ctx, conns, source, cfg.PipelineWindow, opts...)
		if serr != nil {
			cancel()
			return fail(serr)
		}
		segCount := 0
		for so := range stream.Outcomes() {
			st.verdicts[so.Outcome.Task.ID] = so.Outcome.Verdict
			if len(so.Outcome.Reports) > 0 {
				st.reports[so.Outcome.Task.ID] = so.Outcome.Reports
			}
			segCount++
			settled++
			// Kill only while at least one segment task is still unsettled:
			// the outcome channel is unbuffered, so an unsettled task means a
			// live worker, meaning the drain barrier has not started and
			// cannot leave participant files ahead of the coordinator's. A
			// kill point landing on a segment boundary fires after the
			// checkpoint below instead.
			if killAfter > 0 && settled >= killAfter && settled < to && !killed {
				killed = true
				if participantKill {
					// The victim dies first, abruptly; the cancel then reaps
					// the segment the dead participant can no longer finish.
					workers[0].crash()
				}
				cancel()
			}
		}
		streamErr := stream.Err()
		cancel()
		if killed {
			if !participantKill {
				_ = cleanup() // serve errors from the abrupt teardown are the point
				return nil, true, nil
			}
			if rerr := recoverParticipants(); rerr != nil {
				return fail(rerr)
			}
			killed = false
			killAfter = 0
			settled = st.nextTask
			firstSegment = true
			continue
		}
		if streamErr != nil {
			return fail(streamErr)
		}
		if segCount != to-from {
			return fail(fmt.Errorf("grid: stream segment [%d,%d) settled %d of %d tasks",
				from, to, segCount, to-from))
		}
		st.nextTask = to
		st.seq = seq
		if cfg.CheckpointDir != "" {
			syncTotals()
			if err := st.save(cfg); err != nil {
				return fail(err)
			}
			snapLedgers()
		}
		if killAfter > 0 && settled >= killAfter {
			if participantKill {
				// A kill point on a segment boundary fires after the barrier:
				// the pool dies freshly checkpointed and restarts from it.
				workers[0].crash()
				if rerr := recoverParticipants(); rerr != nil {
					return fail(rerr)
				}
				killAfter = 0
				firstSegment = true
				continue
			}
			_ = cleanup()
			return nil, true, nil
		}
	}

	if err := cleanup(); err != nil {
		return nil, false, err
	}
	syncTotals()

	report = &SimReport{Scheme: cfg.Spec.Kind.String(), PipelineWindow: cfg.PipelineWindow}
	if hub != nil {
		// Only the final attempt's hub is reported: a restart rebuilds the
		// broker, so relay counters cover the post-restore portion of the run
		// (unlike the checkpointed task and traffic totals).
		report.fillBroker(hub)
	}
	for id := 0; id < total; id++ {
		v, ok := st.verdicts[uint64(id)]
		if !ok {
			return nil, false, fmt.Errorf("grid: stream run has no verdict for task %d", id)
		}
		report.TaskVerdicts = append(report.TaskVerdicts, TaskVerdict{TaskID: uint64(id), Verdict: v})
		report.Reports = append(report.Reports, st.reports[uint64(id)]...)
	}
	report.TasksAssigned = total
	for i, w := range workers {
		totals := w.participant.Totals()
		report.Participants = append(report.Participants, ParticipantSummary{
			ID:        w.participant.ID(),
			Behavior:  totals.Behavior,
			Cheater:   w.cheater,
			Tasks:     totals.Tasks,
			Accepted:  totals.Accepted,
			Rejected:  totals.Rejected,
			FEvals:    totals.FEvals,
			BytesSent: st.partSent[i],
			BytesRecv: st.partRecv[i],
		})
		if w.cheater {
			report.CheatersTotal++
			if totals.Rejected > 0 {
				report.CheatersDetected++
			}
		} else if totals.Rejected > 0 {
			report.HonestAccused++
		}
	}
	report.SupervisorBytesSent = st.supSent
	report.SupervisorBytesRecv = st.supRecv
	report.SupervisorEvals = st.supEvals
	for _, led := range st.ledgers {
		s := led.Stats()
		report.WindowsSettled += s.Settled
		report.WindowViolations += s.Violations
		report.WindowsPending += s.Pending
	}
	return report, false, nil
}
