package guard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// Durable checkpoint format (version 1, all integers little-endian):
//
//	header   := magic[8]="DTGPCKPT" version:u16 flags:u16 nSections:u32
//	section  := tag:u32 payloadLen:u64 payload[payloadLen] crc:u32
//
// The CRC is IEEE CRC-32 over the section's tag, payloadLen and payload, so
// a bit flip anywhere — header or body — is caught per section. Sections
// appear in a fixed order (scalars first, then the position/gradient vectors,
// then the per-net state); the decoder is strict and all-or-nothing: any
// truncation, checksum mismatch, duplicate, reordering, length
// inconsistency or trailing garbage rejects the whole file with a typed
// error, and the returned Checkpoint is nil. A file that decodes is exactly
// a file that was completely written — combined with the Store's
// temp-file + fsync + atomic-rename protocol, a crash at any byte of a save
// leaves only whole, loadable checkpoints behind.

// checkpointMagic opens every durable checkpoint file.
const checkpointMagic = "DTGPCKPT"

// CheckpointVersion is the current durable format version. The decoder
// rejects any other version with ErrVersionSkew: optimizer state from a
// different layout must never be reinterpreted silently.
const CheckpointVersion = 1

// Section tags, in required file order.
const (
	tagScalars = 1 + iota
	tagU
	tagV
	tagVPrev
	tagGPrev
	tagBestU
	tagNetWeights
	tagNetVelocity
	numSections = iota
)

// scalarsLen is the fixed payload size of the scalars section:
// 8 int64 + 10 float64 + 1 byte of flags.
const scalarsLen = 8*8 + 10*8 + 1

// Typed decode failures. Every decode error wraps exactly one of these, so
// callers can switch on errors.Is without parsing strings.
var (
	// ErrBadMagic: the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("guard: not a checkpoint file (bad magic)")
	// ErrVersionSkew: the format version is not CheckpointVersion.
	ErrVersionSkew = errors.New("guard: checkpoint version skew")
	// ErrTruncated: the file ends before the declared structure does.
	ErrTruncated = errors.New("guard: truncated checkpoint")
	// ErrCorrupt: a CRC mismatch or structural inconsistency.
	ErrCorrupt = errors.New("guard: corrupt checkpoint")
	// ErrNoCheckpoint: the store holds no committed checkpoint to load.
	ErrNoCheckpoint = errors.New("guard: no checkpoint found")
	// ErrMismatch: a decoded checkpoint does not belong to this run
	// (different design shape or RNG seed). Raised by the resume path, not
	// the decoder.
	ErrMismatch = errors.New("guard: checkpoint does not match this run")
)

// DecodeError carries the incident context of a failed durable-checkpoint
// decode: which file, which section, and the typed cause.
type DecodeError struct {
	// Path of the offending file ("" when decoding a raw buffer).
	Path string
	// Section that failed ("header", "scalars", "U", ...).
	Section string
	// Err is one of the typed sentinel errors above, possibly annotated.
	Err error
}

func (e *DecodeError) Error() string {
	where := e.Section
	if e.Path != "" {
		where = e.Path + ": " + where
	}
	return fmt.Sprintf("guard: checkpoint decode failed at %s: %v", where, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

var sectionNames = [...]string{
	tagScalars:     "scalars",
	tagU:           "U",
	tagV:           "V",
	tagVPrev:       "VPrev",
	tagGPrev:       "GPrev",
	tagBestU:       "BestU",
	tagNetWeights:  "NetWeights",
	tagNetVelocity: "NetVelocity",
}

// ---------------------------------------------------------------------------
// Encoding.

// AppendCheckpoint encodes cp into the version-1 durable format, appending
// to buf (pass buf[:0] to reuse an encode buffer across saves) and returning
// the extended slice.
func AppendCheckpoint(buf []byte, cp *Checkpoint) []byte {
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, CheckpointVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, numSections)

	buf = appendSection(buf, tagScalars, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(cp.Iter)))
		b = binary.LittleEndian.AppendUint64(b, uint64(cp.Seed))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(len(cp.U))))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(len(cp.NetWeights))))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(cp.BestIter)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(cp.DampIters)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(cp.FreezeLambda)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(cp.Retries)))
		for _, f := range [...]float64{
			cp.A, cp.Alpha, cp.Lambda, cp.TGrow,
			cp.PrevOv, cp.Overflow, cp.HPWL, cp.WNS,
			cp.BestOv, cp.DampFactor,
		} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		var flags byte
		if cp.TimingActive {
			flags = 1
		}
		return append(b, flags)
	})
	for _, vs := range [...]struct {
		tag uint32
		v   []float64
	}{
		{tagU, cp.U}, {tagV, cp.V}, {tagVPrev, cp.VPrev},
		{tagGPrev, cp.GPrev}, {tagBestU, cp.BestU},
		{tagNetWeights, cp.NetWeights}, {tagNetVelocity, cp.NetVelocity},
	} {
		vec := vs.v
		buf = appendSection(buf, vs.tag, func(b []byte) []byte {
			for _, f := range vec {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
			}
			return b
		})
	}
	return buf
}

// appendSection frames one section: tag + length + payload + CRC over all
// three. fill appends the payload; the length and CRC are patched in after.
func appendSection(buf []byte, tag uint32, fill func([]byte) []byte) []byte {
	head := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, tag)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // payloadLen, patched below
	buf = fill(buf)
	payloadLen := uint64(len(buf) - head - 12)
	binary.LittleEndian.PutUint64(buf[head+4:], payloadLen)
	crc := crc32.ChecksumIEEE(buf[head:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// ---------------------------------------------------------------------------
// Decoding.

// decoder walks the byte stream with typed-failure accounting.
type decoder struct {
	data []byte
	off  int
	path string
}

func (d *decoder) fail(section string, err error) error {
	return &DecodeError{Path: d.path, Section: section, Err: err}
}

func (d *decoder) need(section string, n int) error {
	if len(d.data)-d.off < n {
		return d.fail(section, fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, d.off, len(d.data)-d.off))
	}
	return nil
}

// decodeCheckpoint strictly decodes a version-1 durable checkpoint read from
// path. On any failure it returns a nil Checkpoint and a *DecodeError
// wrapping one of ErrBadMagic, ErrVersionSkew, ErrTruncated or ErrCorrupt —
// a checkpoint is never partially loaded.
func decodeCheckpoint(data []byte, path string) (*Checkpoint, error) {
	d := &decoder{data: data, path: path}
	if err := d.need("header", 16); err != nil {
		return nil, err
	}
	if string(data[:8]) != checkpointMagic {
		return nil, d.fail("header", ErrBadMagic)
	}
	version := binary.LittleEndian.Uint16(data[8:])
	if version != CheckpointVersion {
		return nil, d.fail("header", fmt.Errorf("%w: file version %d, this build reads version %d",
			ErrVersionSkew, version, CheckpointVersion))
	}
	if flags := binary.LittleEndian.Uint16(data[10:]); flags != 0 {
		return nil, d.fail("header", fmt.Errorf("%w: unknown header flags %#x", ErrCorrupt, flags))
	}
	if ns := binary.LittleEndian.Uint32(data[12:]); ns != numSections {
		return nil, d.fail("header", fmt.Errorf("%w: %d sections declared, version %d has %d",
			ErrCorrupt, ns, CheckpointVersion, numSections))
	}
	d.off = 16

	cp := &Checkpoint{}
	var vecLen, nNets int
	for want := uint32(tagScalars); want < tagScalars+numSections; want++ {
		name := sectionNames[want]
		payload, err := d.section(want, name)
		if err != nil {
			return nil, err
		}
		if want == tagScalars {
			if len(payload) != scalarsLen {
				return nil, d.fail(name, fmt.Errorf("%w: scalars payload is %d bytes, want %d",
					ErrCorrupt, len(payload), scalarsLen))
			}
			if b := payload[scalarsLen-1]; b > 1 {
				return nil, d.fail(name, fmt.Errorf("%w: unknown scalar flags %#x", ErrCorrupt, b))
			}
			vecLen, nNets = decodeScalars(payload, cp)
			if vecLen < 0 || nNets < 0 {
				return nil, d.fail(name, fmt.Errorf("%w: negative vector length", ErrCorrupt))
			}
			continue
		}
		wantLen := vecLen
		if want == tagNetWeights || want == tagNetVelocity {
			wantLen = nNets
		}
		if len(payload) != 8*wantLen {
			return nil, d.fail(name, fmt.Errorf("%w: %s payload is %d bytes, scalars declare %d elements",
				ErrCorrupt, name, len(payload), wantLen))
		}
		vec := make([]float64, wantLen)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		switch want {
		case tagU:
			cp.U = vec
		case tagV:
			cp.V = vec
		case tagVPrev:
			cp.VPrev = vec
		case tagGPrev:
			cp.GPrev = vec
		case tagBestU:
			cp.BestU = vec
		case tagNetWeights:
			cp.NetWeights = vec
		case tagNetVelocity:
			cp.NetVelocity = vec
		}
	}
	if d.off != len(data) {
		return nil, d.fail("trailer", fmt.Errorf("%w: %d bytes of trailing garbage",
			ErrCorrupt, len(data)-d.off))
	}
	return cp, nil
}

// section consumes and verifies the next section, which must carry wantTag.
func (d *decoder) section(wantTag uint32, name string) ([]byte, error) {
	if err := d.need(name, 12); err != nil {
		return nil, err
	}
	head := d.off
	tag := binary.LittleEndian.Uint32(d.data[head:])
	if tag != wantTag {
		return nil, d.fail(name, fmt.Errorf("%w: section tag %d where %s (%d) belongs",
			ErrCorrupt, tag, name, wantTag))
	}
	payloadLen := binary.LittleEndian.Uint64(d.data[head+4:])
	if payloadLen > uint64(len(d.data)) {
		return nil, d.fail(name, fmt.Errorf("%w: section declares %d payload bytes in a %d-byte file",
			ErrTruncated, payloadLen, len(d.data)))
	}
	n := int(payloadLen)
	if err := d.need(name, 12+n+4); err != nil {
		return nil, err
	}
	body := d.data[head : head+12+n]
	wantCRC := binary.LittleEndian.Uint32(d.data[head+12+n:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, d.fail(name, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)",
			ErrCorrupt, wantCRC, got))
	}
	d.off = head + 12 + n + 4
	return body[12:], nil
}

func decodeScalars(p []byte, cp *Checkpoint) (vecLen, nNets int) {
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	cp.Iter = int(int64(u(0)))
	cp.Seed = int64(u(1))
	vecLen = int(int64(u(2)))
	nNets = int(int64(u(3)))
	cp.BestIter = int(int64(u(4)))
	cp.DampIters = int(int64(u(5)))
	cp.FreezeLambda = int(int64(u(6)))
	cp.Retries = int(int64(u(7)))
	cp.A = math.Float64frombits(u(8))
	cp.Alpha = math.Float64frombits(u(9))
	cp.Lambda = math.Float64frombits(u(10))
	cp.TGrow = math.Float64frombits(u(11))
	cp.PrevOv = math.Float64frombits(u(12))
	cp.Overflow = math.Float64frombits(u(13))
	cp.HPWL = math.Float64frombits(u(14))
	cp.WNS = math.Float64frombits(u(15))
	cp.BestOv = math.Float64frombits(u(16))
	cp.DampFactor = math.Float64frombits(u(17))
	cp.TimingActive = p[8*18] == 1
	return vecLen, nNets
}

// ---------------------------------------------------------------------------
// Store: crash-consistent persistence with bounded retention.

// checkpoint file naming: ckpt-%010d.ckpt, in-progress writes use .tmp.
const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

// Store persists checkpoints into a directory with crash consistency: each
// save encodes into a reused buffer, writes a temp file, fsyncs it, renames
// it to its final name (the atomic commit point) and fsyncs the directory.
// A crash at any point leaves either the previous set of whole checkpoints
// or the previous set plus one new whole checkpoint — never a torn file
// under a committed name. Retention keeps the newest Keep checkpoints and
// deletes older ones after each successful commit.
//
// A Store is single-writer: the optimize loop saves from one goroutine.
type Store struct {
	fs   FS
	dir  string
	keep int
	buf  []byte
}

// NewStore opens (creating if needed) a checkpoint directory. keep <= 0
// retains every checkpoint. Leftover temp files from a previous crash are
// removed; committed checkpoints are kept.
func NewStore(fs FS, dir string, keep int) (*Store, error) {
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("guard: opening checkpoint dir: %w", err)
	}
	s := &Store{fs: fs, dir: dir, keep: keep}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("guard: opening checkpoint dir: %w", err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// Best-effort: a stale temp file is garbage by construction
			// (never committed), but failing to unlink it is not fatal.
			_ = fs.Remove(filepath.Join(dir, name))
		}
	}
	return s, nil
}

// fileName returns the committed name for a checkpoint at iter.
func fileName(iter int) string {
	return fmt.Sprintf("%s%010d%s", ckptPrefix, iter, ckptSuffix)
}

// parseIter extracts the iteration from a committed checkpoint file name,
// returning ok=false for anything else in the directory.
func parseIter(name string) (int, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	digits := name[len(ckptPrefix) : len(name)-len(ckptSuffix)]
	if len(digits) == 0 {
		return 0, false
	}
	iter := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		iter = iter*10 + int(c-'0')
	}
	return iter, true
}

// Save durably commits cp. On error the store is unchanged (a torn temp
// file may remain; it is ignored by loads and cleaned on the next open).
func (s *Store) Save(cp *Checkpoint) error {
	s.buf = AppendCheckpoint(s.buf[:0], cp)
	tmp := filepath.Join(s.dir, fileName(cp.Iter)+tmpSuffix)
	final := filepath.Join(s.dir, fileName(cp.Iter))

	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	if _, err := f.Write(s.buf); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("guard: checkpoint save: %w", err)
	}
	return s.prune()
}

// prune enforces retention: keep the newest s.keep committed checkpoints.
func (s *Store) prune() error {
	if s.keep <= 0 {
		return nil
	}
	iters, err := s.list()
	if err != nil {
		return err
	}
	if len(iters) <= s.keep {
		return nil
	}
	for _, iter := range iters[:len(iters)-s.keep] {
		if err := s.fs.Remove(filepath.Join(s.dir, fileName(iter))); err != nil {
			return fmt.Errorf("guard: checkpoint retention: %w", err)
		}
	}
	return nil
}

// list returns the committed checkpoint iterations, ascending.
func (s *Store) list() ([]int, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("guard: listing checkpoints: %w", err)
	}
	var iters []int
	for _, name := range names {
		if iter, ok := parseIter(name); ok {
			iters = append(iters, iter)
		}
	}
	sort.Ints(iters)
	return iters, nil
}

// Iters returns the committed checkpoint iterations, ascending (empty when
// none). Tests use it to sample kill points.
//
//dtgp:allow(unreached) place's TestKillResumeBitIdentity and guard's TestStoreSaveLoadRetention
func (s *Store) Iters() ([]int, error) { return s.list() }

// LoadLatest reads and strictly decodes the newest committed checkpoint,
// returning it with the path it came from. A directory with no committed
// checkpoint returns ErrNoCheckpoint; a newest file that fails to decode
// returns the typed decode error — never a silent fallback to an older file
// or a cold start, because acting on stale state (or none) when the caller
// asked to resume is itself a correctness fault.
func (s *Store) LoadLatest() (*Checkpoint, string, error) {
	iters, err := s.list()
	if err != nil {
		return nil, "", err
	}
	if len(iters) == 0 {
		return nil, "", fmt.Errorf("%w in %s", ErrNoCheckpoint, s.dir)
	}
	path := filepath.Join(s.dir, fileName(iters[len(iters)-1]))
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, path, fmt.Errorf("guard: reading checkpoint: %w", err)
	}
	cp, err := decodeCheckpoint(data, path)
	if err != nil {
		return nil, path, err
	}
	return cp, path, nil
}
