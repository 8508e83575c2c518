package store

import (
	"errors"
	"fmt"
	"io"
)

// Segment streaming: the wire format used to replicate perfdb records
// between cluster nodes is exactly the on-disk record framing (length
// prefix + CRC32-C + versioned body, see record.go). Reusing the frame
// means a replica can verify integrity of every transferred record with
// the same code path that guards the local segments, and a streamed
// batch is byte-compatible with a segment file.
//
// Sequence numbers are node-local: a frame carries the sender's seq for
// debugging, but the importer ignores it and lets its own store assign a
// fresh one. Records are content-addressed (key = input hash) and the
// payload is byte-deterministic, so cross-node conflicts cannot diverge:
// import keeps whichever copy has the newest submission time.

// ErrBadFrame reports a torn or corrupt frame in a replication stream.
var ErrBadFrame = errors.New("store: bad stream frame")

// EncodeFrame appends the framed wire encoding of rec to buf and returns
// the extended slice. seq is advisory (the sender's sequence number);
// importers assign their own.
func EncodeFrame(buf []byte, rec Record, seq uint64) []byte {
	return encodeRecord(buf, rec, seq)
}

// ReadFrame reads one framed record from r. It returns io.EOF at a clean
// stream end and ErrBadFrame (wrapped) for torn or corrupt frames.
func ReadFrame(r io.Reader) (Record, uint64, error) {
	rec, seq, _, err := readRecord(r)
	if err == io.EOF {
		return Record{}, 0, io.EOF
	}
	if err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return rec, seq, nil
}

// ImportRecord folds one replicated record into the store. The record is
// skipped (false, nil) when the store already holds the key at the same
// or a newer submission time — replication pushes are idempotent and
// re-deliveries after a crash or rebalance retry are free.
func (s *Store) ImportRecord(rec Record) (bool, error) {
	if rec.Key == "" {
		return false, fmt.Errorf("store: imported record without key")
	}
	if m, ok := s.GetMeta(rec.Key); ok && m.UnixNano >= rec.UnixNano {
		return false, nil
	}
	if err := s.Append(rec); err != nil {
		return false, err
	}
	return true, nil
}

// ImportFrames reads wire frames from r until EOF, importing each via
// ImportRecord, and returns how many were applied vs skipped as already
// present. A torn or corrupt frame aborts the import at that point with
// ErrBadFrame; everything before it has already been applied (frames are
// independent, so a partial import is safe and the sender just retries).
func (s *Store) ImportFrames(r io.Reader) (applied, skipped int, err error) {
	for {
		rec, _, err := ReadFrame(r)
		if err == io.EOF {
			return applied, skipped, nil
		}
		if err != nil {
			return applied, skipped, err
		}
		ok, err := s.ImportRecord(rec)
		if err != nil {
			return applied, skipped, err
		}
		if ok {
			applied++
		} else {
			skipped++
		}
	}
}
