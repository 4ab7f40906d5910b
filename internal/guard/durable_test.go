package guard

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// testCheckpoint builds a checkpoint with varied, bit-pattern-hostile
// payloads: negative zero, ±Inf, NaN, denormals — the codec must round-trip
// all of them bit-exactly.
func testCheckpoint(iter, vecLen, nNets int) *Checkpoint {
	cp := &Checkpoint{
		Iter: iter, Seed: -7, A: 3.25, Alpha: 1e-9, Lambda: 42.5, TGrow: 1.21,
		PrevOv: 0.31, Overflow: 0.29, HPWL: 1.5e7, WNS: -123.25,
		TimingActive: iter%2 == 0,
		BestOv:       0.27, BestIter: iter - 3,
		DampIters: 2, DampFactor: 0.5, FreezeLambda: 7, Retries: 1,
	}
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1.0 / 3.0,
	}
	mk := func(n int, salt float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = salt*float64(i) + 0.125
		}
		for i, s := range specials {
			if i < n {
				v[i] = s
			}
		}
		return v
	}
	cp.U = mk(vecLen, 1)
	cp.V = mk(vecLen, 2)
	cp.VPrev = mk(vecLen, 3)
	cp.GPrev = mk(vecLen, 4)
	cp.BestU = mk(vecLen, 5)
	cp.NetWeights = mk(nNets, 6)
	cp.NetVelocity = mk(nNets, 7)
	return cp
}

// cmpVec compares float vectors bit-exactly (== would treat NaN as unequal
// and -0 as equal to +0; resume bit-identity needs the raw bits).
func cmpVec(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", name, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func cmpCheckpoint(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Iter != want.Iter || got.Seed != want.Seed ||
		got.BestIter != want.BestIter || got.DampIters != want.DampIters ||
		got.FreezeLambda != want.FreezeLambda || got.Retries != want.Retries ||
		got.TimingActive != want.TimingActive {
		t.Fatalf("integer/flag fields differ: got %+v", got)
	}
	for _, p := range [...]struct {
		name      string
		got, want float64
	}{
		{"A", got.A, want.A}, {"Alpha", got.Alpha, want.Alpha},
		{"Lambda", got.Lambda, want.Lambda}, {"TGrow", got.TGrow, want.TGrow},
		{"PrevOv", got.PrevOv, want.PrevOv}, {"Overflow", got.Overflow, want.Overflow},
		{"HPWL", got.HPWL, want.HPWL}, {"WNS", got.WNS, want.WNS},
		{"BestOv", got.BestOv, want.BestOv}, {"DampFactor", got.DampFactor, want.DampFactor},
	} {
		if math.Float64bits(p.got) != math.Float64bits(p.want) {
			t.Fatalf("%s = %v, want %v", p.name, p.got, p.want)
		}
	}
	cmpVec(t, "U", got.U, want.U)
	cmpVec(t, "V", got.V, want.V)
	cmpVec(t, "VPrev", got.VPrev, want.VPrev)
	cmpVec(t, "GPrev", got.GPrev, want.GPrev)
	cmpVec(t, "BestU", got.BestU, want.BestU)
	cmpVec(t, "NetWeights", got.NetWeights, want.NetWeights)
	cmpVec(t, "NetVelocity", got.NetVelocity, want.NetVelocity)
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{16, 5}, {1, 0}, {0, 0}, {7, 1}} {
		want := testCheckpoint(42, dims[0], dims[1])
		data := AppendCheckpoint(nil, want)
		got, err := decodeCheckpoint(data, "")
		if err != nil {
			t.Fatalf("decode(%v): %v", dims, err)
		}
		cmpCheckpoint(t, got, want)
	}
}

// sectionBoundaries returns every structural offset of an encoded
// checkpoint: the header edges and each section's header/payload/CRC edges.
func sectionBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	offs := []int{0, 8, 16}
	off := 16
	for off < len(data) {
		if len(data)-off < 12 {
			t.Fatalf("malformed test encoding at %d", off)
		}
		n := int(binary.LittleEndian.Uint64(data[off+4:]))
		offs = append(offs, off+12, off+12+n, off+12+n+4)
		off += 12 + n + 4
	}
	return offs
}

func TestDecodeTruncationAtEveryBoundary(t *testing.T) {
	data := AppendCheckpoint(nil, testCheckpoint(7, 6, 3))
	for _, off := range sectionBoundaries(t, data) {
		if off == len(data) {
			continue
		}
		for _, cut := range []int{off, off + 1} {
			if cut >= len(data) {
				continue
			}
			cp, err := decodeCheckpoint(data[:cut], "")
			if cp != nil {
				t.Fatalf("truncation at %d returned a checkpoint", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("truncation at %d: untyped error %v", cut, err)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("truncation at %d: no DecodeError context: %v", cut, err)
			}
		}
	}
}

func TestDecodeSingleBitFlips(t *testing.T) {
	orig := AppendCheckpoint(nil, testCheckpoint(9, 5, 2))
	// Flip one bit in every byte position (cheap enough at this size); the
	// strict decoder must reject every flipped file with a typed error —
	// magic, version, structure or CRC — and never return a checkpoint that
	// differs from the original silently.
	data := make([]byte, len(orig))
	for pos := 0; pos < len(orig); pos++ {
		copy(data, orig)
		data[pos] ^= 1 << (pos % 8)
		cp, err := decodeCheckpoint(data, "")
		if err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", pos)
		}
		if cp != nil {
			t.Fatalf("bit flip at byte %d returned a non-nil checkpoint with error", pos)
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersionSkew) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: untyped error %v", pos, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := AppendCheckpoint(nil, testCheckpoint(3, 4, 1))
	binary.LittleEndian.PutUint16(data[8:], CheckpointVersion+1)
	_, err := decodeCheckpoint(data, "")
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version skew: got %v, want ErrVersionSkew", err)
	}
}

func TestDecodeBadMagicAndGarbage(t *testing.T) {
	if _, err := decodeCheckpoint([]byte("HELLO, WORLD — not a checkpoint"), ""); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := decodeCheckpoint(nil, ""); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: got %v", err)
	}
	// Trailing garbage after a valid file is corruption, not slack.
	data := AppendCheckpoint(nil, testCheckpoint(3, 4, 1))
	data = append(data, 0xAB)
	if _, err := decodeCheckpoint(data, ""); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v", err)
	}
}

func TestStoreSaveLoadRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(OSFS, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter <= 50; iter += 10 {
		if err := s.Save(testCheckpoint(iter, 8, 4)); err != nil {
			t.Fatalf("save iter %d: %v", iter, err)
		}
	}
	iters, err := s.Iters()
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[0] != 30 || iters[2] != 50 {
		t.Fatalf("retention kept %v, want [30 40 50]", iters)
	}
	cp, path, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iter != 50 || path == "" {
		t.Fatalf("LoadLatest = iter %d (%s), want 50", cp.Iter, path)
	}
	cmpCheckpoint(t, cp, testCheckpoint(50, 8, 4))
}

func TestStoreLoadLatestEmpty(t *testing.T) {
	s, err := NewStore(OSFS, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store LoadLatest: got %v, want ErrNoCheckpoint", err)
	}
}

// TestStoreCorruptNewestIsFatal: when the newest committed checkpoint is
// damaged, LoadLatest must surface the typed error — not silently fall back
// to an older snapshot, which would resume from the wrong state.
func TestStoreCorruptNewestIsFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(OSFS, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, iter := range []int{10, 20} {
		if err := s.Save(testCheckpoint(iter, 4, 2)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, fileName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, gotPath, err := s.LoadLatest()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt newest: got %v, want ErrCorrupt", err)
	}
	if gotPath != path {
		t.Fatalf("error context names %q, want %q", gotPath, path)
	}
}

// TestStoreIgnoresForeignFilesAndCleansTemp: stray files don't confuse the
// store, and leftover temp files from a crash are cleaned on open.
func TestStoreIgnoresForeignFilesAndCleansTemp(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "ckpt-XYZ.ckpt", "ckpt-.ckpt", fileName(99) + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStore(OSFS, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(99)+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived NewStore")
	}
	if err := s.Save(testCheckpoint(5, 4, 2)); err != nil {
		t.Fatal(err)
	}
	cp, _, err := s.LoadLatest()
	if err != nil || cp.Iter != 5 {
		t.Fatalf("LoadLatest with foreign files: %v, iter %v", err, cp)
	}
}
