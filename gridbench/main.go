// Command gridbench is the repository benchmark. It drives the grid
// library over four workloads in one process — a closed loop, with
// in-flight work bounded by the session window times the routes — checks
// every verdict, and prints one JSON object as the last line of standard
// output: the end-to-end metrics, or with --trace 1 the per-layer metrics
// of a separate traced phase. It exits non-zero when a correctness check
// fails.
//
// Run it from the repository root:
//
//	bash gridbench/run.sh --workload cbs-compute --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/grid"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workDir  string
	tiny     bool
}

func main() {
	if spec := os.Getenv(setupChildEnv); spec != "" {
		os.Exit(runSetupChild(spec, os.Stdout, os.Stderr))
	}
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(run(opts, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: task seeds, supervisor seed and cheat schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced phase")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for checkpoint files and span dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = *trace == 1
	return o, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options, stdout, stderr io.Writer) int {
	sp, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.tiny {
		sp = sp.tiny()
	}
	fp := fingerprint(sp.name, o.seed)
	fpJSON, _ := json.Marshal(fp) // a map of strings and numbers always encodes
	fmt.Fprintf(stdout, "# machine %s\n", fpJSON)

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	base, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() { _ = os.RemoveAll(base) }()
	dirs := 0
	nextDir := func() string {
		dirs++
		return filepath.Join(base, fmt.Sprintf("world-%d", dirs))
	}

	job := setupJob{Workload: o.workload, Seed: o.seed, Dir: filepath.Join(base, "setup"), Tiny: o.tiny}
	var setups []float64
	sampleSetups := func() error {
		got, err := sampleSetupsInChildren(job, setupProcs/2, stderr)
		setups = append(setups, got...)
		return err
	}
	if !o.trace {
		if err := sampleSetups(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	measure := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The traced run's untraced reference phase and its traced phase of
		// the same task count together take about --seconds.
		measure /= 2
	}
	plain, err := runPhase(sp, o.seed, nil, nextDir(), time.Now().Add(measure), 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !o.trace {
		if err := sampleSetups(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	res := result{Attempted: plain.attempted, Failed: plain.failed}
	notes := plain.notes
	var ms metricSet
	if !o.trace {
		ms = endToEndMetrics(plain, median(setups))
	} else {
		tr := newTracer(sp.taskSize, uint64(plain.attempted))
		traced, err := runPhase(sp, o.seed, tr, nextDir(), time.Time{}, uint64(plain.attempted))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		notes = append(notes, traced.notes...)
		if plain.exact != traced.exact {
			res.Failed++
			notes = append(notes, fmt.Sprintf("exact counters differ: untraced %+v, traced %+v", plain.exact, traced.exact))
		}
		rp := replay(sp, o.seed, uint64(traced.attempted))
		if len(rp.mismatches) > 0 {
			res.Failed += int64(len(rp.mismatches))
			notes = append(notes, rp.mismatches...)
		}
		ms = perLayerMetrics(sp, plain, traced, tr, rp)
		header := map[string]any{"machine": fp, "exact": traced.exact}
		spanFile := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, o.seed))
		if err := tr.writeSpans(spanFile, header); err != nil {
			fmt.Fprintf(stderr, "spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# spans written to %s\n", spanFile)
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metricValue)
	for _, d := range defsFor(o.trace) {
		v, ok := ms[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			notes = append(notes, fmt.Sprintf("metric %s was not measured", d.name))
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	printReport(stdout, sp, plain, res, o.trace, notes)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndMetrics derives the untraced metrics of a measured phase.
func endToEndMetrics(p *phaseResult, setup float64) metricSet {
	tasks := float64(p.ok)
	lat := append([]float64(nil), p.latencies...)
	sort.Float64s(lat)
	// Throughput and CPU per task cover the windows before the deadline,
	// leaving out the drain after it.
	var wTasks int
	var wDur, wCPU time.Duration
	for _, w := range p.windows {
		wTasks += w.tasks
		wDur += w.dur
		wCPU += w.cpu
	}
	return metricSet{
		"tasks_per_s":          float64(wTasks) / wDur.Seconds(),
		"latency_p50_ms":       quantile(lat, 0.5),
		"latency_p99_ms":       quantile(lat, tailQuantile(len(lat))),
		"cpu_us_per_task":      float64(wCPU.Microseconds()) / float64(wTasks),
		"wire_bytes_per_task":  float64(p.wireBytes) / tasks,
		"allocs_per_task":      float64(p.mallocs) / tasks,
		"alloc_bytes_per_task": float64(p.allocBytes) / tasks,
		"setup_s":              setup,
	}
}

// perLayerMetrics derives the per-layer metrics of the traced phase t; p is
// the untraced phase of the same run, for the tracing overhead.
func perLayerMetrics(sp workloadSpec, p, t *phaseResult, tr *tracer, rp replayResult) metricSet {
	tasks := float64(t.ok)
	per := func(x int64) float64 { return float64(x) / tasks }
	usPer := func(ns int64) float64 { return float64(ns) / 1e3 / tasks }
	replayUs := func(ns int64) float64 {
		if rp.tasks == 0 {
			return 0
		}
		return float64(ns) / 1e3 / float64(rp.tasks)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tps := tasks / t.wall.Seconds()
	meanLatS := mean(t.latencies) / 1e3
	inflight := tps * meanLatS
	m := metricSet{
		"workload.participant_evals_per_task": per(t.exact.ParticipantEvals),
		"workload.eval_us_per_task":           usPer(tr.evalNs.Load()),
		"merkle.build_us_per_task":            replayUs(rp.buildNs),
		"merkle.hashes_per_task":              0,
		"core.respond_us_per_task":            replayUs(rp.respondNs),
		"core.verify_us_per_task":             replayUs(rp.verifyNs),
		"core.verify_recompute_us_per_task":   replayUs(rp.verifyRecomputeNs),
		"core.response_bytes_per_task":        0,
		"core.bytes_vs_model":                 0,
		"verify_evals_per_task":               per(t.exact.VerifyEvals),
		"hashchain.sample_us_per_task":        replayUs(rp.sampleNs),
		"transport.frames_sent_per_task":      per(t.framesSent),
		"transport.frames_recv_per_task":      per(t.framesRecv),
		"transport.bytes_per_frame":           ratio(t.wireBytes, t.framesSent+t.framesRecv),
		"transport.send_busy_us_per_task":     usPer(tr.sendNs.Load()),
		"transport.recv_wait_us_per_task":     usPer(tr.recvNs.Load()),
		"grid.pool.inflight_mean":             inflight,
		"grid.pool.occupancy":                 inflight / float64(sp.window*sp.totalRoutes()),
		// Broker and mux counters stay zero without a hub.
		"grid.broker.relayed_frames_per_task":       per(t.relayedMsgs),
		"grid.broker.relayed_bytes_per_task":        per(t.relayedBytes),
		"grid.broker.rebatch_ratio_to_worker":       ratio(t.toWorkerIn, t.toWorkerOut),
		"grid.broker.rebatch_ratio_to_supervisor":   ratio(t.toSupIn, t.toSupOut),
		"grid.broker.control_frames_per_task":       per(t.ctrlMsgs),
		"grid.broker.mux_overhead_bytes_per_task":   per(t.muxOverheadBytes),
		"grid.broker.credit_window_bytes_per_route": float64(t.creditWindow) / float64(sp.totalRoutes()),
		"grid.broker.credit_stalls_per_task":        per(t.stalls),
		"grid.mux.grant_frames_per_task":            per(t.grantFrames),
		"grid.mux.credit_granted_bytes_per_task":    per(t.creditGranted),
		"grid.window.settled":                       float64(t.window.Settled),
		"grid.window.violations":                    float64(t.window.Violations),
		"grid.window.pending":                       float64(t.window.Pending),
		"grid.checkpoint.barrier_ms_per_segment":    0,
		"grid.checkpoint.bytes_per_participant":     0,
		"grid.replica.upload_bytes_per_replica":     0,
		"baseline.compare_us_per_task":              replayUs(rp.compareNs),
		"runtime.gc_cpu_fraction":                   0,
		"runtime.gc_cycles_per_1k_tasks":            1000 * per(int64(t.numGC)),
		"runtime.goroutines_max":                    float64(t.goroutinesMax),
		"runtime.retained_heap_mb":                  float64(t.retainedHeap) / 1e6,
	}
	if sp.scheme != grid.SchemeDoubleCheck {
		n := int64(sp.taskSize)
		// Leaves are the raw results; each internal node of the tree, padded
		// to a power of two, is one hash.
		m["merkle.hashes_per_task"] = float64(int64(1)<<bits.Len64(uint64(n-1)) - 1)
		if rp.tasks > 0 {
			respBytes := float64(rp.responseBytes) / float64(rp.tasks)
			m["core.response_bytes_per_task"] = respBytes
			m["core.bytes_vs_model"] = respBytes / float64(analysis.CBSCommunicationBytes(n, 8, 32, int64(sp.m)))
		}
	}
	if len(t.barriers) > 0 {
		var sum time.Duration
		for _, b := range t.barriers {
			sum += b
		}
		m["grid.checkpoint.barrier_ms_per_segment"] = float64(sum) / float64(time.Millisecond) / float64(len(t.barriers))
		m["grid.checkpoint.bytes_per_participant"] = float64(t.checkpointBytes) / participantCount
	}
	if t.exact.ReplicaOutcomes > 0 {
		m["grid.replica.upload_bytes_per_replica"] = ratio(t.poolBytesRecv, t.exact.ReplicaOutcomes)
	}
	if t.cpu > 0 {
		m["runtime.gc_cpu_fraction"] = t.gcCPU / t.cpu.Seconds()
	}
	cpuUs := float64(t.cpu.Microseconds()) / tasks
	// The CPU-bound layers' busy time: participant f-evals as traced,
	// commitment build, proof, full verification and comparison as
	// replayed. Index derivation is inside respond and verify already.
	// Time blocked in Send is left out: on the WAN link it is mostly the
	// link's delay, and on pipes waits for buffer space, neither of which
	// is CPU.
	busy := m["workload.eval_us_per_task"] +
		m["merkle.build_us_per_task"] + m["core.respond_us_per_task"] +
		m["core.verify_recompute_us_per_task"] + m["baseline.compare_us_per_task"]
	m["residual_us_per_task"] = cpuUs - busy
	plainTps := float64(p.ok) / p.wall.Seconds()
	m["trace_overhead_pct"] = 100 * (plainTps - tps) / plainTps
	return m
}

// printReport prints the human-readable lines that precede the result.
func printReport(w io.Writer, sp workloadSpec, p *phaseResult, res result, traced bool, notes []string) {
	fmt.Fprintf(w, "# workload %s: %s\n", sp.name, sp.why)
	failRatio := 0.0
	if res.Attempted > 0 {
		failRatio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "# task_fail_ratio %.6g (%d failed of %d attempted)\n", failRatio, res.Failed, res.Attempted)
	if !traced {
		fmt.Fprintf(w, "# latency samples %d; tail quantile p%.4g\n",
			len(p.latencies), 100*tailQuantile(len(p.latencies)))
	}
	for _, d := range defsFor(traced) {
		fmt.Fprintf(w, "%-45s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "# FAIL %s\n", n)
	}
}

// tailQuantile is the highest of p99 and the quantile with at least ten
// samples beyond it: p99 once a run holds 1,000 samples.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 1
	}
	return min(0.99, float64(n-10)/float64(n))
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fingerprint identifies the machine and run a result came from, so no
// number is compared across machines.
func fingerprint(workload string, seed uint64) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "unknown"
		}
		return "unreadable: " + err.Error()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
