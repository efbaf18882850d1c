package baseline

import (
	"bytes"
	"fmt"
)

// DoubleCheck is the straightforward solution of Section 1: assign the same
// task to several participants and compare their result vectors. It wastes
// (k-1)× the processor cycles and still uploads O(n) per replica; the paper
// dismisses it, which is why measuring it matters.
type DoubleCheck struct {
	replicas int
}

// NewDoubleCheck creates a redundancy comparator over k >= 2 replicas.
func NewDoubleCheck(replicas int) (*DoubleCheck, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("baseline: double-check needs >= 2 replicas, got %d", replicas)
	}
	return &DoubleCheck{replicas: replicas}, nil
}

// Replicas reports the redundancy factor k.
func (d *DoubleCheck) Replicas() int { return d.replicas }

// Verdict is the outcome of a redundancy comparison.
type Verdict struct {
	// Canonical is the majority result vector (index-wise majority vote).
	// Its entries alias the replicas' input slices (a winning replica's
	// bytes, not a copy): callers must treat both as read-only.
	Canonical [][]byte
	// Dissenters lists replica positions that disagreed with the majority
	// on at least one index — the flagged (presumed cheating) replicas.
	Dissenters []int
	// DisputedIndices counts domain indices with any disagreement.
	DisputedIndices int
}

// Compare performs an index-wise majority vote over the replicas' result
// vectors. All vectors must have equal length n. An index with no strict
// majority yields ErrNoConsensus: the supervisor must recompute or reassign.
func (d *DoubleCheck) Compare(replicaResults [][][]byte) (*Verdict, error) {
	if len(replicaResults) != d.replicas {
		return nil, fmt.Errorf("baseline: got %d replicas, want %d", len(replicaResults), d.replicas)
	}
	n := len(replicaResults[0])
	if n == 0 {
		return nil, fmt.Errorf("%w: empty result vectors", ErrBadDomain)
	}
	for r, results := range replicaResults {
		if len(results) != n {
			return nil, fmt.Errorf("%w: replica %d has %d results, want %d",
				ErrResultCountMismatch, r, len(results), n)
		}
	}

	verdict := &Verdict{Canonical: make([][]byte, n)}
	dissenting := make([]bool, d.replicas)
	for i := 0; i < n; i++ {
		majority, unanimous, ok := majorityValue(replicaResults, i)
		if !ok {
			return nil, fmt.Errorf("%w: index %d", ErrNoConsensus, i)
		}
		verdict.Canonical[i] = majority
		if unanimous {
			continue
		}
		verdict.DisputedIndices++
		for r := 0; r < d.replicas; r++ {
			if !bytes.Equal(replicaResults[r][i], majority) {
				dissenting[r] = true
			}
		}
	}
	for r, bad := range dissenting {
		if bad {
			verdict.Dissenters = append(verdict.Dissenters, r)
		}
	}
	return verdict, nil
}

// majorityValue returns the strictly most common value at index i, if one
// exists (> half the replicas), and whether every replica agreed. The result
// aliases a replica's slice. When every replica agrees — the common case —
// that is replica 0's, and no vote is tallied.
func majorityValue(replicaResults [][][]byte, i int) (value []byte, unanimous, ok bool) {
	first := replicaResults[0][i]
	unanimous = true
	for _, results := range replicaResults[1:] {
		if !bytes.Equal(results[i], first) {
			unanimous = false
			break
		}
	}
	if unanimous {
		return first, true, true
	}
	k := len(replicaResults)
	counts := make(map[string]int, k)
	for r := 0; r < k; r++ {
		counts[string(replicaResults[r][i])]++
	}
	for r := 0; r < k; r++ {
		if 2*counts[string(replicaResults[r][i])] > k {
			return replicaResults[r][i], false, true
		}
	}
	return nil, false, false
}
