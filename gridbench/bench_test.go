package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uncheatgrid/internal/grid"
)

// TestMain lets the test binary serve as its own set-up sampler process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(runSetupChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runTiny runs one workload at the tiny size and returns its exit code and
// parsed result line.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(options{
		workload: workload,
		seed:     seed,
		seconds:  0.3,
		trace:    trace,
		workDir:  t.TempDir(),
		tiny:     true,
	}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errOut.String())
	}
	return code, res, out.String() + errOut.String()
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	return names
}

func TestEveryWorkloadPassesItsChecks(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				code, res, out := runTiny(t, w.name, seed, trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s seed %d trace %v: exit %d, result %+v\n%s", w.name, seed, trace, code, res, out)
				}
				want := metricNames(defsFor(trace))
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
				}
				for _, d := range defsFor(trace) {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
					}
				}
			}
		}
	}
}

func TestLazyCheaterIsRejected(t *testing.T) {
	sp, err := lookupWorkload("cbs-compute")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.tiny()
	res, err := runPhase(sp, 3, nil, filepath.Join(t.TempDir(), "w"), time.Time{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.ok != 64 {
		t.Fatalf("ok %d, failed %d: %v", res.ok, res.failed, res.notes)
	}
	if res.exact.Rejected != 64/16 || res.exact.Cheated != res.exact.Rejected {
		t.Errorf("rejected %d, cheated %d, want %d each", res.exact.Rejected, res.exact.Cheated, 64/16)
	}
	if want := int64(sp.m) * res.exact.Accepted; res.exact.VerifyEvals < want {
		t.Errorf("supervisor spent %d evals, want at least m × accepted = %d", res.exact.VerifyEvals, want)
	}
}

func TestCheckerCountsWrongAndDuplicateOutcomes(t *testing.T) {
	sp, err := lookupWorkload("cbs-compute")
	if err != nil {
		t.Fatal(err)
	}
	// Every other task goes to the lazy cheater: of tasks 0 and 1 one is
	// honest and one scheduled, and so are tasks 2 and 3.
	sched := newCheatSchedule(2, 1)
	chk := newChecker(sp, 1, sched, nil)
	src := chk.source(0, 4, time.Time{})
	for i := uint64(0); i < 4; i++ {
		if _, ok := src(i); !ok {
			t.Fatalf("source refused task %d", i)
		}
	}
	honest, lazy := uint64(0), uint64(1)
	if sched.takes(0) {
		honest, lazy = 1, 0
	}
	ok := grid.Verdict{Accepted: true}
	rejected := grid.Verdict{Reason: "x"}
	m := int64(sp.m)
	chk.outcome(&grid.TaskOutcome{Task: chk.task(honest), Verdict: ok, VerifyEvals: m})
	chk.outcome(&grid.TaskOutcome{Task: chk.task(honest), Verdict: ok, VerifyEvals: m}) // duplicate
	chk.outcome(&grid.TaskOutcome{Task: chk.task(lazy), Verdict: ok, VerifyEvals: m})   // scheduled task accepted
	chk.outcome(&grid.TaskOutcome{Task: chk.task(lazy + 2), Verdict: rejected})         // scheduled task rejected
	chk.finish()                                                                        // honest+2 never decided
	if chk.ok != 2 || chk.failed != 3 || chk.rejected != 1 {
		t.Fatalf("ok %d, failed %d, rejected %d, want 2, 3 and 1: %v", chk.ok, chk.failed, chk.rejected, chk.notes)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), benchmark has %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, benchmark prints %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
