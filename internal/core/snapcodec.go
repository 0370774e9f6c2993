package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// snapMagic opens every version 2 snapshot. A version 1 snapshot is a
// JSON object, so its first byte is '{' and the two never collide.
const snapMagic = "PFS\x02"

// The version 2 layout, after snapMagic (uvarint/varint are Go's
// encoding/binary varints, varint zig-zag signed; f64 and u64 are 8
// bytes little-endian, a float as its raw IEEE-754 bits):
//
//	header      uvarint length + the JSON of Snapshot's tagged fields
//	valids      uvarint n, then n × (input:front, new_blocks:varint, exec:varint)
//	coverage    ids
//	vbr         ids
//	path_seen   uvarint n, then n × (hash delta:uvarint, count:varint)
//	seen        uvarint n, then n × input:front
//	parents     uvarint n, then n × (blks:ids, stack:f64, path:u64)
//	queue       uvarint n, then n × cand
//	s_cur       one byte 0 (absent) or 1, then cand
//	emitted     only with a hybrid header: uvarint n, then n × input:front
//
// where ids is uvarint n then n uvarint deltas modulo 2^32 from the
// previous id (from 0), a hash delta is likewise modulo 2^64, cand is
// (input:front, replacement:bytes, parent:varint, parents:varint,
// retries:varint, mine_gen:varint, score:f64), bytes is a uvarint
// length then the bytes, and front is an input front-coded against
// the previous one in its list (nil for the first, and for s_cur): a
// uvarint count of leading bytes shared with it, then the rest as
// bytes.
//
// The encoding is canonical: the decoder rejects non-minimal varints,
// a shared prefix that is not the longest one, a header that is not
// the exact JSON the encoder writes, and trailing bytes, so every blob
// it accepts re-encodes to itself (FuzzSnapshotDecode pins this).

// snapWriter appends the version 2 encoding.
type snapWriter struct{ b []byte }

func (w *snapWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *snapWriter) varint(v int)     { w.b = binary.AppendVarint(w.b, int64(v)) }
func (w *snapWriter) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }

func (w *snapWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *snapWriter) front(prev, cur []byte) {
	n := 0
	for n < len(prev) && n < len(cur) && prev[n] == cur[n] {
		n++
	}
	w.uvarint(uint64(n))
	w.bytes(cur[n:])
}

func (w *snapWriter) frontList(list [][]byte) {
	w.uvarint(uint64(len(list)))
	var prev []byte
	for _, in := range list {
		w.front(prev, in)
		prev = in
	}
}

func (w *snapWriter) ids(ids []uint32) {
	w.uvarint(uint64(len(ids)))
	var prev uint32
	for _, id := range ids {
		w.uvarint(uint64(id - prev))
		prev = id
	}
}

func (w *snapWriter) cand(prev []byte, c *SnapCandidate) {
	w.front(prev, c.Input)
	w.bytes(c.Replacement)
	w.varint(c.Parent)
	w.varint(c.Parents)
	w.varint(c.Retries)
	w.varint(c.MineGen)
	w.f64(c.Score)
}

// encodeSnapshot writes s in the version 2 layout.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	hdr, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("core: encoding snapshot header: %w", err)
	}
	w := snapWriter{b: make([]byte, 0, 1<<10+len(hdr)+24*len(s.Queue))}
	w.b = append(w.b, snapMagic...)
	w.bytes(hdr)

	w.uvarint(uint64(len(s.Valids)))
	var prev []byte
	for i := range s.Valids {
		v := &s.Valids[i]
		w.front(prev, v.Input)
		w.varint(v.NewBlocks)
		w.varint(v.Exec)
		prev = v.Input
	}
	w.ids(s.Coverage)
	w.ids(s.VBr)
	w.uvarint(uint64(len(s.PathSeen)))
	var prevHash uint64
	for _, pc := range s.PathSeen {
		w.uvarint(pc.Hash - prevHash)
		w.varint(pc.Count)
		prevHash = pc.Hash
	}
	w.frontList(s.Seen)
	w.uvarint(uint64(len(s.ParentTable)))
	for i := range s.ParentTable {
		p := &s.ParentTable[i]
		w.ids(p.Blks)
		w.f64(p.Stack)
		w.u64(p.Path)
	}
	w.uvarint(uint64(len(s.Queue)))
	prev = nil
	for i := range s.Queue {
		w.cand(prev, &s.Queue[i])
		prev = s.Queue[i].Input
	}
	if s.SCur == nil {
		w.b = append(w.b, 0)
	} else {
		w.b = append(w.b, 1)
		w.cand(nil, s.SCur)
	}
	if s.Hybrid != nil {
		w.frontList(s.Hybrid.Emitted)
	}
	return w.b, nil
}

// snapReader decodes the version 2 layout. The first failure sticks:
// every later read returns a zero value, so decoding code checks err
// once per section instead of after every field.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.fail("truncated or overflowing varint")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		r.fail("varint %d overflows int", x)
		return 0
	}
	return int(x)
}

// count reads an element count and rejects it unless that many
// elements of at least minSize bytes each fit in what is left, so no
// allocation is ever sized by an unchecked field.
func (r *snapReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes, capacity-clipped so an append by the
// holder can never write into the bytes after them.
func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("need %d bytes, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *snapReader) bytes() []byte { return r.take(r.count(1)) }

func (r *snapReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) front(prev []byte) []byte {
	shared := r.uvarint()
	suffix := r.bytes()
	if r.err != nil {
		return nil
	}
	if shared > uint64(len(prev)) {
		r.fail("shared prefix %d longer than the previous input (%d bytes)", shared, len(prev))
		return nil
	}
	if int(shared) < len(prev) && len(suffix) > 0 && suffix[0] == prev[shared] {
		r.fail("shared prefix %d is not the longest", shared)
		return nil
	}
	out := make([]byte, int(shared)+len(suffix))
	copy(out, prev[:shared])
	copy(out[shared:], suffix)
	return out
}

func (r *snapReader) frontList() [][]byte {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	out := make([][]byte, n)
	var prev []byte
	for i := range out {
		out[i] = r.front(prev)
		prev = out[i]
	}
	return out
}

func (r *snapReader) ids() []uint32 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	var prev uint32
	for i := range out {
		d := r.uvarint()
		if d > math.MaxUint32 {
			r.fail("id delta %d overflows 32 bits", d)
			return nil
		}
		prev += uint32(d)
		out[i] = prev
	}
	return out
}

// minCandSize is the fewest bytes one encoded candidate takes.
const minCandSize = 2 + 1 + 4 + 8

func (r *snapReader) cand(prev []byte) SnapCandidate {
	return SnapCandidate{
		Input:       r.front(prev),
		Replacement: r.bytes(),
		Parent:      r.varint(),
		Parents:     r.varint(),
		Retries:     r.varint(),
		MineGen:     r.varint(),
		Score:       r.f64(),
	}
}

// decodeSnapshot decodes the version 2 layout that follows snapMagic.
// The decoded snapshot never aliases b.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	r := &snapReader{b: bytes.Clone(b)}
	hdr := r.bytes()
	if r.err != nil {
		return nil, r.err
	}
	s := new(Snapshot)
	if err := json.Unmarshal(hdr, s); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("binary snapshot with version %d in its header", s.Version)
	}
	if canon, err := json.Marshal(s); err != nil || !bytes.Equal(canon, hdr) {
		return nil, errors.New("header is not in canonical form")
	}

	if n := r.count(4); n > 0 {
		s.Valids = make([]SnapValid, n)
		var prev []byte
		for i := range s.Valids {
			in := r.front(prev)
			s.Valids[i] = SnapValid{Input: in, NewBlocks: r.varint(), Exec: r.varint()}
			prev = in
		}
	}
	s.Coverage = r.ids()
	s.VBr = r.ids()
	if n := r.count(2); n > 0 {
		s.PathSeen = make([]PathCount, n)
		var prevHash uint64
		for i := range s.PathSeen {
			prevHash += r.uvarint()
			s.PathSeen[i] = PathCount{Hash: prevHash, Count: r.varint()}
		}
	}
	s.Seen = r.frontList()
	if n := r.count(1 + 8 + 8); n > 0 {
		s.ParentTable = make([]SnapParent, n)
		for i := range s.ParentTable {
			s.ParentTable[i] = SnapParent{Blks: r.ids(), Stack: r.f64(), Path: r.u64()}
		}
	}
	if n := r.count(minCandSize); n > 0 {
		s.Queue = make([]SnapCandidate, n)
		var prev []byte
		for i := range s.Queue {
			s.Queue[i] = r.cand(prev)
			prev = s.Queue[i].Input
		}
	}
	switch flag := r.take(1); {
	case flag == nil:
	case flag[0] == 1:
		sc := r.cand(nil)
		s.SCur = &sc
	case flag[0] != 0:
		r.fail("s_cur flag %#02x", flag[0])
	}
	if s.Hybrid != nil {
		s.Hybrid.Emitted = r.frontList()
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// snapshotV1 is the version 1 layout: one JSON object in which every
// candidate carries its parent's facts inline and Seen holds the whole
// dedup set. It is decoded and converted, never written.
type snapshotV1 struct {
	Snapshot
	Valids   []SnapValid   `json:"valids"`
	Coverage []uint32      `json:"coverage"`
	VBr      []uint32      `json:"vbr"`
	Seen     [][]byte      `json:"seen"`
	PathSeen []PathCount   `json:"path_seen"`
	Queue    []candidateV1 `json:"queue"`
	SCur     *candidateV1  `json:"s_cur"`
	Hybrid   *snapHybridV1 `json:"hybrid"`
}

// candidateV1 is a version 1 candidate. Its "shard" field, written by
// the retired sharded-queue engine, is ignored: every candidate folds
// into the one exact queue in snapshot order, as before.
type candidateV1 struct {
	Input       []byte   `json:"input"`
	Replacement []byte   `json:"replacement"`
	ParentBlks  []uint32 `json:"parent_blks"`
	ParentStack float64  `json:"parent_stack"`
	ParentPath  uint64   `json:"parent_path"`
	Parents     int      `json:"parents"`
	Retries     int      `json:"retries"`
	MineGen     int      `json:"mine_gen"`
	Score       float64  `json:"score"`
}

type snapHybridV1 struct {
	SnapHybrid
	Emitted [][]byte `json:"emitted"`
}

// decodeSnapshotV1 decodes a version 1 JSON snapshot into the current
// layout. Each candidate with parent facts gets its own table entry,
// which restores exactly what the version 1 decoder rebuilt.
func decodeSnapshotV1(b []byte) (*Snapshot, error) {
	var v snapshotV1
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	if v.Version != 1 {
		return nil, fmt.Errorf("JSON snapshot with version %d", v.Version)
	}
	s := &v.Snapshot
	s.Version = snapshotVersion
	s.Valids, s.Coverage, s.VBr, s.Seen, s.PathSeen = v.Valids, v.Coverage, v.VBr, v.Seen, v.PathSeen
	convert := func(c *candidateV1) SnapCandidate {
		sc := SnapCandidate{
			Input: c.Input, Replacement: c.Replacement,
			Parents: c.Parents, Retries: c.Retries, MineGen: c.MineGen, Score: c.Score,
		}
		if len(c.ParentBlks) > 0 || c.ParentStack != 0 || c.ParentPath != 0 {
			s.ParentTable = append(s.ParentTable, SnapParent{Blks: c.ParentBlks, Stack: c.ParentStack, Path: c.ParentPath})
			sc.Parent = len(s.ParentTable)
		}
		return sc
	}
	if len(v.Queue) > 0 {
		s.Queue = make([]SnapCandidate, len(v.Queue))
		for i := range v.Queue {
			s.Queue[i] = convert(&v.Queue[i])
		}
	}
	if v.SCur != nil {
		sc := convert(v.SCur)
		s.SCur = &sc
	}
	if v.Hybrid != nil {
		h := v.Hybrid.SnapHybrid
		h.Emitted = v.Hybrid.Emitted
		s.Hybrid = &h
	}
	return s, nil
}
