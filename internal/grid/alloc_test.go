//go:build !race

package grid

import (
	"runtime"
	"testing"
)

// TestTaskRunStreamAllocsUnderOneKB pins the per-task challenge stream's
// setup cost: keying ChaCha8 is O(1), where the additive lagged-Fibonacci
// source it replaced allocated ~4.9 KB and ran a seeding loop per task. The
// file is excluded from race builds because the race runtime adds its own
// allocations.
func TestTaskRunStreamAllocsUnderOneKB(t *testing.T) {
	s, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 3})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	const tasks = 1000
	runs := make([]*taskRun, 0, tasks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tasks; i++ {
		runs = append(runs, s.newTaskRun(Task{ID: uint64(i), N: 64}))
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / tasks
	if per >= 1024 {
		t.Fatalf("per-task stream construction allocates %d B, want < 1 KiB", per)
	}
	t.Logf("per-task stream construction: %d B", per)
}
