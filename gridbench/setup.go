package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"uncheatgrid/internal/grid"
)

// Set-up is timed in setupProcs fresh processes, half before and half after
// the measured phase; each process builds the deployment between
// minSetupRuns and maxSetupRuns times, as many as fit in setupBudget, and
// setup_s is the median of all those samples. One set-up of a direct-pipe
// workload takes tens of microseconds, and its typical time differs by a
// fifth from one process to the next, far more than within a process, so
// the samples must come from several processes.
const (
	setupProcs   = 10
	minSetupRuns = 6
	maxSetupRuns = 51
	setupBudget  = 150 * time.Millisecond
)

// setupChildEnv, when set, turns the process into a set-up sampler for the
// setupJob its value encodes: it prints the set-up times in seconds as one
// JSON list and exits.
const setupChildEnv = "GRIDBENCH_SETUP_CHILD"

type setupJob struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Dir      string `json:"dir"`
	Tiny     bool   `json:"tiny"`
}

// runSetupChild is the sampler process's main.
func runSetupChild(spec string, stdout, stderr io.Writer) int {
	var job setupJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", setupChildEnv, err)
		return 2
	}
	sp, err := lookupWorkload(job.Workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if job.Tiny {
		sp = sp.tiny()
	}
	samples, err := sampleSetups(sp, job.Seed, job.Dir)
	if err != nil {
		fmt.Fprintf(stderr, "setup: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(samples); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// sampleSetups times set-ups in this process, each from a collected heap.
// The first pays one-time process costs and is not kept.
func sampleSetups(sp workloadSpec, seed uint64, dir string) ([]float64, error) {
	if _, err := measureSetup(sp, seed, filepath.Join(dir, "warm-up")); err != nil {
		return nil, err
	}
	var samples []float64
	began := time.Now()
	for i := 0; i < maxSetupRuns && (i < minSetupRuns || time.Since(began) < setupBudget); i++ {
		runtime.GC()
		d, err := measureSetup(sp, seed, filepath.Join(dir, fmt.Sprintf("world-%d", i)))
		if err != nil {
			return nil, err
		}
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

// sampleSetupsInChildren runs n sampler processes one after another, each
// a fresh instance of this executable, and pools their samples.
func sampleSetupsInChildren(job setupJob, n int, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := job.Dir
	var samples []float64
	for i := 0; i < n; i++ {
		job.Dir = filepath.Join(base, fmt.Sprintf("proc-%d", i))
		spec, err := json.Marshal(job)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupChildEnv+"="+string(spec))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sampler: %w", err)
		}
		var got []float64
		if err := json.Unmarshal(out, &got); err != nil {
			return nil, fmt.Errorf("set-up sampler output: %w", err)
		}
		samples = append(samples, got...)
	}
	return samples, nil
}

// measureSetup builds a deployment and opens a stream of no tasks, timing
// until the stream call returns with its sessions open, then tears it
// down.
func measureSetup(sp workloadSpec, seed uint64, dir string) (time.Duration, error) {
	start := time.Now()
	w, err := newWorld(sp, seed, nil, dir)
	if err != nil {
		return 0, err
	}
	defer func() { _ = w.removeDir() }()
	defer w.close()
	var stream *grid.TaskStream
	if sp.replicas > 0 {
		stream, err = w.pool.RunTasksStream(context.Background(), w.routes, nil, sp.window, grid.WithReplicas(sp.replicas))
	} else {
		var opts []grid.StreamOption
		if w.ledgers != nil {
			opts = append(opts, grid.WithWindowSettle(w.ledgers))
		}
		none := func(uint64) (grid.Task, bool) { return grid.Task{}, false }
		stream, err = w.pool.RunTaskSource(context.Background(), w.routes, none, sp.window, opts...)
	}
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	for range stream.Outcomes() {
	}
	if err := stream.Err(); err != nil {
		return 0, err
	}
	return took, nil
}
