package core

import (
	"bytes"
	"reflect"
	"testing"

	"uncheatgrid/internal/workload"
)

// FuzzResponseUnmarshal covers the Step 3 response decoder, which parses a
// participant's proofs on every verified CBS task. Accepted input must
// round-trip to equal proofs, and the decoded response must own its bytes:
// the grid hands it pooled transport payloads that are recycled after
// decoding, so proofs that borrowed them would change under the verifier.
func FuzzResponseUnmarshal(f *testing.F) {
	p, err := NewProver(5, workload.NewSynthetic(7, 1, 64).Eval)
	if err != nil {
		f.Fatalf("NewProver: %v", err)
	}
	for _, indices := range [][]uint64{{0}, {4, 1, 4}} {
		resp, err := p.Respond(indices)
		if err != nil {
			f.Fatalf("Respond: %v", err)
		}
		data, err := resp.MarshalBinary()
		if err != nil {
			f.Fatalf("MarshalBinary: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x01, 0x04, 0x00, 0x01, 0x00, 0x00}) // one proof over a one-leaf tree
	f.Add([]byte{0xff, 0xff, 0x3f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		var resp Response
		if err := resp.UnmarshalBinary(in); err != nil {
			return
		}
		encoded, err := resp.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of a decoded response failed: %v", err)
		}
		var again Response
		if err := again.UnmarshalBinary(encoded); err != nil {
			t.Fatalf("re-decode of a re-encoded response failed: %v", err)
		}
		if !reflect.DeepEqual(resp.Proofs, again.Proofs) {
			t.Fatalf("round trip changed the proofs: %+v != %+v", resp.Proofs, again.Proofs)
		}
		for i := range in {
			in[i] ^= 0xff
		}
		after, err := resp.MarshalBinary()
		if err != nil || !bytes.Equal(after, encoded) {
			t.Fatalf("decoded response aliases its input: re-encoding changed after the input was overwritten (err %v)", err)
		}
	})
}
