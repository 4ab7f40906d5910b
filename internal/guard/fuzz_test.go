package guard

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeCheckpoint drives the strict checkpoint decoder with adversarial
// inputs. The decoder's contract under fuzzing:
//
//   - never panic, whatever the bytes;
//   - on success, return a structurally coherent checkpoint (section
//     lengths consistent: the five position-shaped vectors equal-length,
//     the two net-shaped vectors equal-length);
//   - on failure, return one of the typed sentinels wrapped in a
//     DecodeError — callers dispatch on errors.Is, so an untyped error is
//     a contract break, not a nuisance.
//
// The seed corpus covers the ISSUE-specified cases: a valid snapshot,
// truncations at every section boundary, single-bit flips, and a
// version-skewed header.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := AppendCheckpoint(nil, testCheckpoint(11, 6, 3))
	f.Add(valid)
	// Truncations at every structural boundary (header edges, each
	// section's tag/len edge, payload edge, CRC edge).
	offs := []int{0, 8, 16}
	off := 16
	for off < len(valid) && len(valid)-off >= 12 {
		n := int(binary.LittleEndian.Uint64(valid[off+4:]))
		offs = append(offs, off+12, off+12+n, off+12+n+4)
		off += 12 + n + 4
	}
	for _, o := range offs {
		if o < len(valid) {
			f.Add(append([]byte(nil), valid[:o]...))
		}
	}
	// Single-bit flips sampled across the file (every byte is covered by
	// the unit test; the fuzzer mutates from these seeds).
	for pos := 0; pos < len(valid); pos += 7 {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 1 << (pos % 8)
		f.Add(flipped)
	}
	// Version-skew header.
	skew := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skew[8:], CheckpointVersion+1)
	f.Add(skew)
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte("DTGPCKPT"))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data, "")
		if err != nil {
			if cp != nil {
				t.Fatal("decoder returned both a checkpoint and an error")
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersionSkew) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error without DecodeError context: %v", err)
			}
			return
		}
		if cp == nil {
			t.Fatal("nil checkpoint with nil error")
		}
		n := len(cp.U)
		if len(cp.V) != n || len(cp.VPrev) != n || len(cp.GPrev) != n || len(cp.BestU) != n {
			t.Fatalf("inconsistent vector lengths: U=%d V=%d VPrev=%d GPrev=%d BestU=%d",
				n, len(cp.V), len(cp.VPrev), len(cp.GPrev), len(cp.BestU))
		}
		if len(cp.NetWeights) != len(cp.NetVelocity) {
			t.Fatalf("inconsistent net vector lengths: %d vs %d",
				len(cp.NetWeights), len(cp.NetVelocity))
		}
		// A successful decode must re-encode to the identical bytes
		// (canonical format: one encoding per state).
		if re := AppendCheckpoint(nil, cp); string(re) != string(data) {
			t.Fatal("accepted input is not the canonical encoding of its state")
		}
	})
}
