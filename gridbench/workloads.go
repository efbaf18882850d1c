package main

import (
	"fmt"
	"time"

	"uncheatgrid/internal/grid"
)

// workloadSpec is one benchmark workload: a scheme, its sizes and the
// topology it runs over. Every workload uses two participants and at most
// two physical supervisor-side connections at a time.
type workloadSpec struct {
	name string
	why  string

	scheme     grid.SchemeKind
	m          int
	chainIters int
	taskSize   uint64
	window     int
	// routes is the number of supervisor routes per participant; more than
	// one only makes sense multiplexed over the broker link.
	routes int
	// wanLatency, when positive, puts a BrokerHub between supervisor and
	// participants and multiplexes every route over one TCP loopback link
	// that pays this delay per frame at both ends.
	wanLatency time.Duration
	// cheatEvery, when positive, hands one task in cheatEvery to the
	// benchmark's lazy cheater.
	cheatEvery uint64
	// windowTasks and windowSamples arm rolling window commitments.
	windowTasks, windowSamples int
	// segmentTasks, when positive, cuts the horizon into RunTaskSource
	// segments of that many tasks over fresh connections, each ending with
	// a checkpoint barrier.
	segmentTasks uint64
	// replicas, when positive, runs replicated double-check through
	// RunTasksStream in batches of the pool's default high-water mark.
	replicas int
}

const participantCount = 2

var workloads = []workloadSpec{
	{
		name:       "cbs-compute",
		why:        "CBS m=33 over 4096-input synthetic tasks on direct pipes: f-evals, Merkle commitments and sample verification dominate",
		scheme:     grid.SchemeCBS,
		m:          33,
		taskSize:   4096,
		window:     4,
		routes:     1,
		cheatEvery: 16,
	},
	{
		name:       "nicbs-wan-mux",
		why:        "NI-CBS on tiny tasks, 16 routes muxed over one 500us TCP hub link: frames per task set the rate, not compute",
		scheme:     grid.SchemeNICBS,
		m:          8,
		chainIters: 4,
		taskSize:   64,
		window:     8,
		routes:     8,
		wanLatency: 500 * time.Microsecond,
	},
	{
		name:          "stream-window-ckpt",
		why:           "long-horizon CBS stream with rolling window commitments and a checkpoint barrier every 500 tasks: per-task overhead dominates",
		scheme:        grid.SchemeCBS,
		m:             8,
		taskSize:      64,
		window:        8,
		routes:        1,
		windowTasks:   16,
		windowSamples: 4,
		segmentTasks:  500,
	},
	{
		name:     "doublecheck-upload",
		why:      "replicated double-check on 2048-input tasks: full result uploads and replica comparison instead of sampling",
		scheme:   grid.SchemeDoubleCheck,
		m:        1,
		taskSize: 2048,
		window:   8,
		routes:   1,
		replicas: 2,
	},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// tiny shrinks a workload for the benchmark's own tests: the same shape on
// far smaller tasks and segments, so every path runs in well under a
// second.
func (w workloadSpec) tiny() workloadSpec {
	w.taskSize /= 16
	if w.segmentTasks > 0 {
		w.segmentTasks = 40
	}
	return w
}

// totalRoutes is the number of connections handed to the pool.
func (w workloadSpec) totalRoutes() int { return participantCount * w.routes }

// schemeSpec is the scheme every task of the workload is verified with.
func (w workloadSpec) schemeSpec() grid.SchemeSpec {
	return grid.SchemeSpec{
		Kind:          w.scheme,
		M:             w.m,
		ChainIters:    w.chainIters,
		WindowTasks:   w.windowTasks,
		WindowSamples: w.windowSamples,
	}
}

// batchTasks is the replicated workload's batch size: the pool's default
// high-water mark of 2 × window × connections, so tasks are drawn the same
// distance ahead of execution as a source-fed stream draws them.
func (w workloadSpec) batchTasks() uint64 {
	return uint64(2 * w.window * w.totalRoutes())
}
