// Package store is perfdb: a durable, content-addressed, append-only
// result store. trackd keeps its in-memory LRU for hot results, but every
// completed analysis is also appended here, so a daemon restart loses
// nothing and series of runs accumulate into the history the trajectory
// engine mines.
//
// Layout: a directory of segment files (perfdb-NNNNNN.seg) holding
// length-prefixed, CRC-checked records (see record.go). Writes only ever
// append to the newest segment; when it exceeds the size bound a new one
// is started. The in-memory index (key -> newest record location) is
// rebuilt by scanning the segments at open; a torn tail — the result of a
// crash mid-append — is truncated away rather than treated as fatal, so
// the store recovers exactly the prefix of intact records. Appending the
// same key again supersedes the older record. Superseded records stay on
// disk: the store never reclaims them at runtime (Stats.Superseded counts
// them).
//
// Durability is batched: appends accumulate and fsync runs every
// SyncEvery records (or on Sync/Close), trading a bounded window of
// recent results against fsync-per-write latency. The trackd cache sits
// in front as a read-through layer, so the hot path never touches disk.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"perftrack/internal/faults"
)

// Options parametrises Open.
type Options struct {
	// MaxSegmentBytes bounds each segment file; the active segment rolls
	// over once it exceeds this (default 64 MiB).
	MaxSegmentBytes int64
	// SyncEvery batches fsync: the active segment is synced after this
	// many appends (default 8; 1 = sync every append).
	SyncEvery int
	// OnFsync, when set, observes the latency of every fsync (metrics
	// hook).
	OnFsync func(time.Duration)
	// FS is the filesystem the store operates on (default the real one).
	// Tests plug in faults.FaultFS here to exercise short writes, fsync
	// errors, ENOSPC and torn renames under the store.
	FS faults.FS
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 8
	}
	if o.FS == nil {
		o.FS = faults.OS{}
	}
	return o
}

// Stats is a snapshot of the store's state and cumulative activity.
type Stats struct {
	// Records is the number of live (non-superseded) records.
	Records int
	// Segments is the number of segment files.
	Segments int
	// Bytes is the total on-disk size of all segments.
	Bytes int64
	// Appends and Fsyncs count cumulative operations since open.
	Appends uint64
	Fsyncs  uint64
	// Superseded counts records replaced by a newer append to the same
	// key and still occupying disk.
	Superseded uint64
	// CorruptDropped counts records dropped at open because their CRC or
	// structure was invalid; TornTruncated counts bytes cut off the tail
	// of the newest segment after a crash mid-append.
	CorruptDropped uint64
	TornTruncated  int64
	// WriteHeals counts failed appends whose torn bytes were cut back
	// off the active segment (or sealed behind a rotation) so later
	// appends never land behind garbage.
	WriteHeals uint64
}

// entry locates one live record.
type entry struct {
	seg  int // segment id
	off  int64
	size int64 // framed size on disk
	meta Meta
}

// Store is an open perfdb directory. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	readers  map[int]faults.File // segment id -> read handle
	segSizes map[int]int64       // segment id -> byte size
	active   faults.File         // newest segment, opened for append
	activeID int
	dirty    int // appends since the last fsync
	seq      uint64
	index    map[string]entry
	stats    Stats
	closed   bool
}

const segPrefix, segSuffix = "perfdb-", ".seg"

func segName(id int) string { return fmt.Sprintf("%s%06d%s", segPrefix, id, segSuffix) }

// Open scans dir (created if missing), rebuilds the index, truncates any
// torn tail off the newest segment, and readies the store for appends.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		readers:  map[int]faults.File{},
		segSizes: map[int]int64{},
		activeID: -1,
		index:    map[string]entry{},
	}
	ids, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if err := s.scanSegment(id, i == len(ids)-1); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.openActive(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// listSegments returns the segment ids present in dir, ascending.
func listSegments(fsys faults.FS, dir string) ([]int, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var ids []int
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// scanSegment walks one segment, folding its records into the index.
// Scanning stops at the first invalid record: for the newest segment the
// tail beyond that point is truncated away (crash recovery); for older
// segments the remainder is counted corrupt and skipped.
func (s *Store) scanSegment(id int, newest bool) error {
	path := filepath.Join(s.dir, segName(id))
	f, err := s.opts.FS.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("store: opening segment %s: %w", path, err)
	}
	var off int64
	for {
		rec, seq, n, err := readRecord(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			fi, statErr := f.Stat()
			if statErr != nil {
				f.Close()
				return statErr
			}
			if newest {
				// Torn or trailing-corrupt tail after a crash: cut it off
				// so the segment ends at the last intact record.
				f.Close()
				if truncErr := s.opts.FS.Truncate(path, off); truncErr != nil {
					return fmt.Errorf("store: truncating torn tail of %s: %w", path, truncErr)
				}
				s.stats.TornTruncated += fi.Size() - off
				s.segSizes[id] = off
				s.recordSegment(id, off)
				return nil
			}
			// Mid-history corruption: drop the rest of this segment.
			s.stats.CorruptDropped++
			off = fi.Size()
			break
		}
		s.indexRecord(rec, seq, entry{seg: id, off: off, size: n})
		off += n
	}
	f.Close()
	s.recordSegment(id, off)
	return nil
}

// recordSegment registers a scanned segment's size and read handle
// bookkeeping (handles open lazily).
func (s *Store) recordSegment(id int, size int64) {
	s.segSizes[id] = size
	if id > s.activeID {
		s.activeID = id
	}
}

// indexRecord folds one scanned or appended record into the index,
// superseding older sequence numbers.
func (s *Store) indexRecord(rec Record, seq uint64, at entry) {
	if seq > s.seq {
		s.seq = seq
	}
	at.meta = Meta{
		Key: rec.Key, Series: rec.Series, Label: rec.Label,
		UnixNano: rec.UnixNano, Seq: seq, Size: len(rec.Payload),
	}
	if old, ok := s.index[rec.Key]; ok {
		if old.meta.Seq >= seq {
			return // stale duplicate
		}
		s.stats.Superseded++
	}
	s.index[rec.Key] = at
}

// openActive opens (or creates) the append segment. A brand-new store
// starts at segment 0; otherwise the newest scanned segment continues to
// fill until it crosses the size bound.
func (s *Store) openActive() error {
	if s.activeID < 0 {
		s.activeID = 0
	}
	if s.segSizes[s.activeID] >= s.opts.MaxSegmentBytes {
		s.activeID++
	}
	if _, ok := s.segSizes[s.activeID]; !ok {
		s.segSizes[s.activeID] = 0
	}
	path := filepath.Join(s.dir, segName(s.activeID))
	f, err := s.opts.FS.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening active segment: %w", err)
	}
	s.active = f
	return nil
}

// Append durably stores rec, superseding any earlier record with the same
// key. The write lands in the active segment immediately; fsync is
// batched per Options.SyncEvery.
func (s *Store) Append(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: record without key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.active == nil {
		// A previous failed append sealed the segment and could not open
		// the next one (e.g. transient ENOSPC); retry here.
		if err := s.openActive(); err != nil {
			return err
		}
	}
	s.seq++
	seq := s.seq
	buf := encodeRecord(nil, rec, seq)

	off := s.segSizes[s.activeID]
	if _, err := s.active.Write(buf); err != nil {
		// The segment may now hold a torn frame. Heal before reporting the
		// failure so the next append never lands behind garbage bytes.
		s.healLocked(off)
		return fmt.Errorf("store: appending: %w", err)
	}
	s.segSizes[s.activeID] = off + int64(len(buf))
	s.indexRecord(rec, seq, entry{seg: s.activeID, off: off, size: int64(len(buf))})
	s.stats.Appends++
	s.dirty++

	if s.dirty >= s.opts.SyncEvery {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.segSizes[s.activeID] >= s.opts.MaxSegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// syncLocked fsyncs the active segment; callers hold s.mu.
func (s *Store) syncLocked() error {
	if s.dirty == 0 || s.active == nil {
		return nil
	}
	t0 := time.Now()
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.stats.Fsyncs++
	s.dirty = 0
	if s.opts.OnFsync != nil {
		s.opts.OnFsync(time.Since(t0))
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return err
	}
	delete(s.readers, s.activeID) // stale read handle may cache old size
	s.activeID++
	s.segSizes[s.activeID] = 0
	path := filepath.Join(s.dir, segName(s.activeID))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotating segment: %w", err)
	}
	s.active = f
	return nil
}

// healLocked recovers the active segment after a failed append that may
// have persisted a torn frame at offset off. Preferred cure: truncate
// the segment back to off — the O_APPEND handle then continues exactly
// where the last intact record ended. If even the truncate fails (the
// injectors model disks where everything is failing), the segment is
// sealed at its intact prefix and a fresh one started, so the torn bytes
// are left behind a boundary the scanner never crosses mid-segment.
// Callers hold s.mu.
func (s *Store) healLocked(off int64) {
	path := filepath.Join(s.dir, segName(s.activeID))
	if err := s.opts.FS.Truncate(path, off); err == nil {
		s.stats.WriteHeals++
		s.segSizes[s.activeID] = off
		return
	}
	// Seal: sync what we can, close, and move on to a new segment. The
	// torn frame stays on disk but scanning stops at it, matching the
	// mid-history-corruption path.
	s.active.Sync()
	s.active.Close()
	delete(s.readers, s.activeID)
	s.segSizes[s.activeID] = off
	s.stats.WriteHeals++
	s.activeID++
	s.segSizes[s.activeID] = 0
	s.dirty = 0
	s.active = nil
	if err := s.openActive(); err != nil {
		s.active = nil // next Append retries via its nil check
	}
}

// Sync forces any batched appends to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

// reader returns a read handle for segment id, opening it lazily.
// Callers hold s.mu.
func (s *Store) reader(id int) (faults.File, error) {
	if f, ok := s.readers[id]; ok {
		return f, nil
	}
	f, err := s.opts.FS.OpenFile(filepath.Join(s.dir, segName(id)), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	s.readers[id] = f
	return f, nil
}

// Get returns the newest payload stored under key.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	rec, err := s.readAtLocked(e)
	if err != nil {
		return nil, false, err
	}
	return rec.Payload, true, nil
}

// GetMeta returns the index entry for key without touching the payload.
func (s *Store) GetMeta(key string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[key]
	return e.meta, ok
}

// readAtLocked decodes the record at e; callers hold s.mu. Batched writes
// may not be synced yet, but they are visible to reads: the data is in
// the file (or page cache) as soon as Append returns.
func (s *Store) readAtLocked(e entry) (Record, error) {
	f, err := s.reader(e.seg)
	if err != nil {
		return Record{}, err
	}
	rec, _, _, err := readRecord(io.NewSectionReader(f, e.off, e.size))
	if err != nil {
		return Record{}, fmt.Errorf("store: record at seg %d off %d: %w", e.seg, e.off, err)
	}
	return rec, nil
}

// List returns the metadata of every live record, oldest append first.
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e.meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Series returns the live records belonging to the named series, oldest
// append first — the input the trajectory engine chains over.
func (s *Store) Series(name string) []Meta {
	all := s.List()
	out := all[:0:0]
	for _, m := range all {
		if m.Series == name {
			out = append(out, m)
		}
	}
	return out
}

// SeriesNames returns the distinct non-empty series names present.
func (s *Store) SeriesNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range s.index {
		if e.meta.Series != "" {
			seen[e.meta.Series] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResolveKey resolves a possibly abbreviated key: an exact match wins,
// otherwise a unique prefix of a live key.
func (s *Store) ResolveKey(prefix string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[prefix]; ok {
		return prefix, nil
	}
	var found string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			if found != "" {
				return "", fmt.Errorf("store: key prefix %q is ambiguous", prefix)
			}
			found = k
		}
	}
	if found == "" {
		return "", fmt.Errorf("store: no result with key %q", prefix)
	}
	return found, nil
}

// Stats snapshots the store state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Records = len(s.index)
	st.Segments = len(s.segSizes)
	for _, sz := range s.segSizes {
		st.Bytes += sz
	}
	return st
}

// Close syncs and releases every file handle. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.active != nil {
		if err := s.syncLocked(); err != nil && first == nil {
			first = err
		}
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
		s.active = nil
	}
	for _, f := range s.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = nil
	return first
}
