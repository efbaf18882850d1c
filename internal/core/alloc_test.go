//go:build !race

package core

import (
	"testing"

	"uncheatgrid/internal/workload"
)

// The allocation pins here hold the per-task audit path to the paper's cost
// model: verification and the response codec cost a constant number of
// allocations, not one or more per sample. The file is excluded from race
// builds because the race runtime adds its own allocations.

// auditFixture commits to n honest results and answers an m-sample
// challenge, returning everything the supervisor side needs.
func auditFixture(t *testing.T, n, m int) (*Prover, Challenge, *Response) {
	t.Helper()
	p := honestProver(t, workload.NewSynthetic(11, 1, 64), n)
	v := seededVerifier(t, p.Commitment(), int64(m))
	ch, err := v.Challenge(m)
	if err != nil {
		t.Fatalf("Challenge: %v", err)
	}
	resp, err := p.Respond(ch.Indices)
	if err != nil {
		t.Fatalf("Respond: %v", err)
	}
	return p, ch, resp
}

func TestVerifierVerifyAllocsIndependentOfM(t *testing.T) {
	allocsFor := func(m int) float64 {
		p, ch, resp := auditFixture(t, 1024, m)
		v := seededVerifier(t, p.Commitment(), 1)
		return testing.AllocsPerRun(20, func() {
			if err := v.Verify(ch, resp, AcceptAnyOutput); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
	small, large := allocsFor(8), allocsFor(64)
	if small != large {
		t.Fatalf("Verify allocates %.1f at m=8 but %.1f at m=64; want no per-sample allocation", small, large)
	}
}

func TestResponseMarshalOneAlloc(t *testing.T) {
	_, _, resp := auditFixture(t, 1024, 33)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := resp.MarshalBinary(); err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Response.MarshalBinary allocates %.1f, want exactly 1", allocs)
	}
}

func TestResponseUnmarshalAllocsConstantInM(t *testing.T) {
	allocsFor := func(m int) float64 {
		_, _, resp := auditFixture(t, 1024, m)
		data, err := resp.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		return testing.AllocsPerRun(20, func() {
			var decoded Response
			if err := decoded.UnmarshalBinary(data); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
		})
	}
	small, large := allocsFor(8), allocsFor(64)
	if small != large {
		t.Fatalf("UnmarshalBinary allocates %.1f at m=8 but %.1f at m=64; want a constant", small, large)
	}
}
