package merkle

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzProofUnmarshal covers the audit-path decoder, which parses
// participant-supplied bytes on every verified sample. Accepted input must
// round-trip to an equal proof, and the decoded proof must own its bytes:
// transport payloads are pooled and reused, so a proof that borrowed them
// would change under the verifier's feet.
func FuzzProofUnmarshal(f *testing.F) {
	tree, err := Build(leafValues(5))
	if err != nil {
		f.Fatalf("Build: %v", err)
	}
	for _, i := range []int{0, 4} {
		proof, err := tree.Prove(i)
		if err != nil {
			f.Fatalf("Prove: %v", err)
		}
		data, err := proof.MarshalBinary()
		if err != nil {
			f.Fatalf("MarshalBinary: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte{0x00, 0x01, 0x00, 0x00}) // one-leaf tree, empty value
	f.Add([]byte{0x00, 0x02, 0x01, 0xaa, 0x41})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		var p Proof
		if err := p.UnmarshalBinary(in); err != nil {
			return
		}
		encoded, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of a decoded proof failed: %v", err)
		}
		var again Proof
		if err := again.UnmarshalBinary(encoded); err != nil {
			t.Fatalf("re-decode of a re-encoded proof failed: %v", err)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the proof: %+v != %+v", p, again)
		}
		for i := range in {
			in[i] ^= 0xff
		}
		after, err := p.MarshalBinary()
		if err != nil || !bytes.Equal(after, encoded) {
			t.Fatalf("decoded proof aliases its input: re-encoding changed after the input was overwritten (err %v)", err)
		}
	})
}
