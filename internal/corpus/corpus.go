// Package corpus implements the persistent campaign store: an
// append-only journal of valid inputs and engine snapshots with
// crash-tolerant recovery.
//
// A store is the journal of campaign.Durable, the one durable-campaign
// lifecycle that cmd/pfuzzer (-out/-resume) and the pfuzzerd daemon
// both drive: valids are journaled as the engine emits them (so the
// corpus of record survives a kill at any point), and periodic
// snapshots carry the full engine state (core.Snapshot) so a resumed
// campaign continues exactly where the last snapshot was taken. A later campaign can also mine a previously saved corpus
// (core.Config.MineSeeds) without resuming it — the reusable
// token-level corpus that Token-Level Fuzzing shows carrying value
// across campaigns.
//
// On disk a store is two files. The journal at path is a magic
// header followed by framed records:
//
//	[type:1][len:4 LE][payload][crc32(payload):4 LE]
//
// Record types: 'M' campaign metadata (JSON, first record), 'V' one
// valid input ([exec:4 LE][input]). Appends go straight to the file
// descriptor (no userspace buffering); a crash can therefore lose at
// most the tail record, which recovery detects by frame length or
// checksum and truncates away. Everything before the last intact
// record is preserved.
//
// The latest engine snapshot lives beside the journal at path+".snap"
// (gzip-compressed), replaced atomically on every save: the journal
// is fsynced first (a snapshot at exec N implies the corpus through N
// is durable), then the new snapshot is written to a temp file,
// fsynced, and renamed over the old one. Only the latest snapshot is
// ever needed, so superseded ones occupy no space and recovery never
// re-reads history; a torn write can only affect the temp file, never
// the published snapshot, and external corruption is caught by gzip's
// own checksum. A sidecar that inflates beyond maxSnapshot reads as
// no snapshot too.
//
// A journal is single-writer across processes: Create and Open take
// an exclusive advisory flock on it and fail with ErrLocked while
// another Store holds it, so a daemon and a concurrent
// `pfuzzer -resume` on the same file cannot interleave appends. The
// lock dies with the holding process — even kill -9 releases it.
package corpus

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

const magic = "PFCORP1\n"

const (
	recMeta  = 'M'
	recValid = 'V'
)

// maxRecord bounds a single record's payload; larger frames are
// treated as corruption during recovery.
const maxRecord = 1 << 30

// maxSnapshot bounds a snapshot sidecar's decompressed size, so a
// gzip bomb planted in the sidecar cannot exhaust memory on Open: a
// larger one reads as "no snapshot", like a corrupt one. A snapshot
// after 50k executions is a few MB; a variable so tests can shrink it.
var maxSnapshot int64 = 256 << 20

// Meta identifies the campaign a store belongs to.
type Meta struct {
	Subject  string `json:"subject"`
	Tool     string `json:"tool,omitempty"`
	Seed     int64  `json:"seed"`
	MaxExecs int    `json:"max_execs,omitempty"`
}

// Valid is one journaled valid input.
type Valid struct {
	Exec  int
	Input []byte
}

// Store is an open campaign journal. It is not safe for concurrent
// use; the campaign loop owns it.
type Store struct {
	f    *os.File
	path string
	meta Meta

	valids []Valid
	seen   map[string]struct{} // dedup: the journal is the corpus of record
	snap   []byte              // snapshot payload Open recovered, until AppendSnapshot

	truncated int // bytes of corrupt tail dropped by Open
}

// SnapPath returns the sidecar file holding a journal's latest
// snapshot.
func SnapPath(path string) string { return path + ".snap" }

// ErrLocked reports that another process (or another Store in this
// one) holds the journal's advisory lock. Wrapped by Create and Open;
// test with errors.Is.
var ErrLocked = errors.New("corpus: journal is locked by another process")

// lockJournal takes the journal's advisory lock: an exclusive
// non-blocking flock on the journal fd. Exactly one Store — across
// all processes on this machine — may hold a journal open, which is
// what keeps a daemon and a concurrent `pfuzzer -resume` on the same
// directory from interleaving appends and corrupting the frame
// stream. The lock rides the open file description, so it is released
// automatically when the Store closes — or when the owning process
// dies, however abruptly: a kill -9'd daemon never leaves a stale
// lock behind.
func lockJournal(f *os.File, path string) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
			return fmt.Errorf("%w: %s", ErrLocked, path)
		}
		return fmt.Errorf("corpus: locking %s: %w", path, err)
	}
	return nil
}

// Create creates (or truncates) a journal at path, removing any stale
// snapshot sidecar, and writes the metadata header. The header is
// fsynced — and so is the directory, so the journal entry itself
// survives a crash right after Create returns. Create takes the
// journal's advisory lock before truncating anything: creating over a
// journal another process holds open fails with ErrLocked and leaves
// that journal untouched.
func Create(path string, meta Meta) (*Store, error) {
	// No O_TRUNC here: the truncate must wait until the lock is held,
	// or a failed Create would have already destroyed the journal the
	// lock holder is appending to.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: create %s: %w", path, err)
	}
	if err := lockJournal(f, path); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if err := f.Truncate(0); err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: truncating %s: %w", path, err), f.Close())
	}
	// A previous campaign's snapshot must not resume this one. Failing
	// to remove it (other than it not existing) is fatal: silently
	// leaving it behind would make a later -resume restore a foreign
	// campaign's engine over this journal.
	if err := os.Remove(SnapPath(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, errors.Join(fmt.Errorf("corpus: removing stale snapshot: %w", err), f.Close())
	}
	s := &Store{f: f, path: path, meta: meta, seen: map[string]struct{}{}}
	if _, err := f.WriteString(magic); err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: writing header: %w", err), f.Close())
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: encoding meta: %w", err), f.Close())
	}
	if err := s.append(recMeta, mb); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: sync: %w", err), f.Close())
	}
	if err := syncDir(path); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return s, nil
}

// Open opens an existing journal for reading and appending, running
// crash recovery: records are scanned front to back, and the first
// truncated or checksum-corrupt record — the possible remains of a
// write cut short by a crash — and everything after it are dropped by
// truncating the file there. TruncatedBytes reports how much was
// dropped. Open fails with ErrLocked when another process holds the
// journal: resuming a campaign a live daemon is still appending to
// would interleave the two writers' frames.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	if err := lockJournal(f, path); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: reading %s: %w", path, err), f.Close())
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, errors.Join(fmt.Errorf("corpus: %s is not a corpus journal", path), f.Close())
	}
	s := &Store{f: f, path: path, seen: map[string]struct{}{}}
	off := len(magic)
	sawMeta := false
	for off < len(data) {
		typ, payload, next, ok := parseRecord(data, off)
		if !ok {
			break
		}
		switch typ {
		case recMeta:
			if err := json.Unmarshal(payload, &s.meta); err != nil {
				ok = false
			} else {
				sawMeta = true
			}
		case recValid:
			if len(payload) < 4 {
				ok = false
				break
			}
			in := append([]byte(nil), payload[4:]...)
			s.valids = append(s.valids, Valid{Exec: int(binary.LittleEndian.Uint32(payload)), Input: in})
			s.seen[string(in)] = struct{}{}
		default:
			ok = false
		}
		if !ok {
			break
		}
		off = next
	}
	if !sawMeta {
		return nil, errors.Join(fmt.Errorf("corpus: %s has no intact metadata record", path), f.Close())
	}
	if off < len(data) {
		s.truncated = len(data) - off
		if err := f.Truncate(int64(off)); err != nil {
			return nil, errors.Join(fmt.Errorf("corpus: truncating corrupt tail: %w", err), f.Close())
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		return nil, errors.Join(fmt.Errorf("corpus: seeking append position: %w", err), f.Close())
	}
	// The sidecar always holds a complete previous snapshot (writes
	// go through temp+rename); gzip's own checksum catches external
	// corruption, which reads as "no snapshot" rather than bad state,
	// and so does a sidecar that inflates beyond maxSnapshot.
	if data, err := os.ReadFile(SnapPath(path)); err == nil {
		if blob, err := gunzip(data); err == nil {
			s.snap = blob
		}
	}
	return s, nil
}

// parseRecord decodes the record at data[off:]; ok is false when the
// frame is truncated, oversized or fails its checksum.
func parseRecord(data []byte, off int) (typ byte, payload []byte, next int, ok bool) {
	if off+5 > len(data) {
		return 0, nil, 0, false
	}
	typ = data[off]
	n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
	if n < 0 || n > maxRecord || off+5+n+4 > len(data) {
		return 0, nil, 0, false
	}
	payload = data[off+5 : off+5+n]
	sum := binary.LittleEndian.Uint32(data[off+5+n : off+9+n])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, false
	}
	return typ, payload, off + 9 + n, true
}

// append frames and writes one record.
func (s *Store) append(typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	buf := make([]byte, 0, len(hdr)+len(payload)+len(sum))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	buf = append(buf, sum[:]...)
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("corpus: appending record: %w", err)
	}
	return nil
}

// AppendValid journals one valid input. Duplicates (by input bytes)
// are skipped: a resumed campaign re-discovers the valids found
// between its snapshot and the crash, and deduplication makes the
// journal converge to exactly the uninterrupted run's corpus.
func (s *Store) AppendValid(exec int, input []byte) error {
	if _, dup := s.seen[string(input)]; dup {
		return nil
	}
	in := append([]byte(nil), input...)
	s.seen[string(in)] = struct{}{}
	s.valids = append(s.valids, Valid{Exec: exec, Input: in})
	payload := make([]byte, 4+len(in))
	binary.LittleEndian.PutUint32(payload, uint32(exec))
	copy(payload[4:], in)
	return s.append(recValid, payload)
}

// AppendSnapshot publishes an opaque engine snapshot: the journal is
// fsynced first (a snapshot at exec N implies the corpus through N is
// durable), then the gzip-compressed blob is written to a temp file,
// fsynced, renamed over the sidecar at SnapPath, and the directory is
// fsynced so the rename itself is durable. Superseded snapshots
// occupy no space, a crash at any point leaves either the previous or
// the new snapshot intact (never a torn one), and a failed publish
// removes its temp file instead of littering the directory.
func (s *Store) AppendSnapshot(blob []byte) error {
	if s.f == nil {
		return errors.New("corpus: store is closed")
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("corpus: sync: %w", err)
	}
	// BestSpeed: the blob is already compact, and the cut sits on every
	// campaign's path to settled. Readers do not depend on the level.
	var z bytes.Buffer
	zw, err := gzip.NewWriterLevel(&z, gzip.BestSpeed)
	if err != nil {
		return fmt.Errorf("corpus: compressing snapshot: %w", err)
	}
	if _, err := zw.Write(blob); err != nil {
		return fmt.Errorf("corpus: compressing snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("corpus: compressing snapshot: %w", err)
	}
	snapPath := SnapPath(s.path)
	tmp := snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("corpus: writing snapshot: %w", err)
	}
	if _, err := f.Write(z.Bytes()); err != nil {
		return removeTmp(tmp, errors.Join(fmt.Errorf("corpus: writing snapshot: %w", err), f.Close()))
	}
	if err := f.Sync(); err != nil {
		return removeTmp(tmp, errors.Join(fmt.Errorf("corpus: writing snapshot: %w", err), f.Close()))
	}
	if err := f.Close(); err != nil {
		return removeTmp(tmp, fmt.Errorf("corpus: writing snapshot: %w", err))
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return removeTmp(tmp, fmt.Errorf("corpus: publishing snapshot: %w", err))
	}
	if err := syncDir(snapPath); err != nil {
		return err
	}
	s.snap = nil // superseded; the store keeps no copy of what it publishes
	return nil
}

// removeTmp cleans up a failed snapshot's temp file, folding a
// removal failure into the original error.
func removeTmp(tmp string, err error) error {
	if rerr := os.Remove(tmp); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return errors.Join(err, rerr)
	}
	return err
}

// syncDir fsyncs the directory containing path, making a just-created
// or just-renamed directory entry durable. Filesystems that refuse
// fsync on directories (EINVAL on some network mounts) are treated as
// best-effort, matching what databases do.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("corpus: opening directory for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
		return fmt.Errorf("corpus: syncing directory: %w", errors.Join(serr, cerr))
	}
	if cerr != nil {
		return fmt.Errorf("corpus: syncing directory: %w", cerr)
	}
	return nil
}

// gunzip inflates a snapshot sidecar, refusing one that inflates
// beyond maxSnapshot bytes before it has read more than one byte past
// the bound.
func gunzip(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, maxSnapshot+1))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > maxSnapshot {
		return nil, fmt.Errorf("corpus: snapshot inflates beyond %d bytes", maxSnapshot)
	}
	return out, nil
}

// Meta returns the campaign metadata.
func (s *Store) Meta() Meta { return s.meta }

// Path returns the journal's path.
func (s *Store) Path() string { return s.path }

// Valids returns the journaled valid inputs in append order,
// deduplicated. The slices are owned by the store.
func (s *Store) Valids() []Valid { return s.valids }

// ValidInputs returns just the input bytes of Valids — the corpus in
// the shape core.Config.MineSeeds and mine.Grammar.Seed consume.
func (s *Store) ValidInputs() [][]byte {
	out := make([][]byte, len(s.valids))
	for i := range s.valids {
		out[i] = s.valids[i].Input
	}
	return out
}

// Snapshot returns the snapshot blob Open recovered from the sidecar,
// or nil if there was none intact. It is what a resume decodes, read
// right after Open: the store keeps no copy of the blobs it publishes,
// so the first AppendSnapshot releases it and Snapshot returns nil
// from then on. Reopen the journal to read the latest published one.
func (s *Store) Snapshot() []byte { return s.snap }

// TruncatedBytes reports how many bytes of corrupt tail Open dropped
// (0 for a clean journal).
func (s *Store) TruncatedBytes() int { return s.truncated }

// Close syncs and closes the journal. Both failures are reported: a
// failed sync means the tail may not be durable, and a failed close
// can surface deferred write errors on some filesystems.
func (s *Store) Close() error {
	if s.f == nil {
		return errors.New("corpus: store already closed")
	}
	err := errors.Join(s.f.Sync(), s.f.Close())
	s.f = nil
	return err
}
