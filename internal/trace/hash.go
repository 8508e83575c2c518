package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Content addressing: every trace has a canonical SHA-256 fingerprint
// covering exactly the information the analysis pipeline consumes — the
// metadata fields, the sorted parameter map and the burst sequence in its
// stored order. Two traces with equal hashes produce bit-identical
// pipeline results (the pipeline is deterministic in burst order), which
// is what makes the service's result cache sound: a cached result can be
// returned for any submission whose inputs hash to the same key.
//
// The encoding is length-prefixed and type-tagged so field values can
// never alias across boundaries ("ab"+"c" vs "a"+"bc"), and floats are
// hashed by their IEEE-754 bit patterns so -0, NaN payloads and subnormal
// values all distinguish.
//
// The fingerprint is a persistent format (it keys every stored result),
// so the encoder below must produce the same byte stream as writing each
// field to the hash on its own. It appends fields to one buffer and
// hands the hash whole chunks instead; SHA-256 digests a stream, so how
// the stream is split into writes cannot change the digest.

// hashChunk is the size at which the encoder hands its buffer to the
// hash. A burst's fixed fields are appended whole, so the buffer may
// overrun it by at most one burst's worth before the next flush.
const hashChunk = 32 << 10

// encoder appends canonical encodings to buf and writes them to h in
// chunks of about hashChunk bytes.
type encoder struct {
	h   hash.Hash
	buf []byte
}

func newEncoder() *encoder {
	return &encoder{h: sha256.New(), buf: make([]byte, 0, hashChunk+256)}
}

func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) tag(b byte)    { e.buf = append(e.buf, b) }

// str appends a length-prefixed string, flushing whenever the buffer
// fills, so a string longer than a chunk never grows the buffer.
func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	for len(s) > 0 {
		e.flushFull()
		n := min(len(s), hashChunk-len(e.buf))
		e.buf = append(e.buf, s[:n]...)
		s = s[n:]
	}
}

// flushFull writes the buffer to the hash once it holds a whole chunk.
func (e *encoder) flushFull() {
	if len(e.buf) >= hashChunk {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// sum writes what remains buffered and returns the digest, leaving the
// encoder reset for the next input.
func (e *encoder) sum() [32]byte {
	e.h.Write(e.buf)
	var out [32]byte
	e.h.Sum(out[:0])
	e.h.Reset()
	e.buf = e.buf[:0]
	return out
}

// trace returns the canonical hash of t.
func (e *encoder) trace(t *Trace) [32]byte {
	e.tag('T')
	e.str(t.Meta.App)
	e.str(t.Meta.Label)
	e.i64(int64(t.Meta.Ranks))
	e.i64(int64(t.Meta.TasksPerNode))
	e.str(t.Meta.Machine)
	e.str(t.Meta.Compiler)
	keys := make([]string, 0, len(t.Meta.Params))
	for k := range t.Meta.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.str(t.Meta.Params[k])
	}
	e.u64(uint64(len(t.Bursts)))
	for i := range t.Bursts {
		b := &t.Bursts[i]
		e.flushFull()
		e.tag('B')
		e.i64(int64(b.Task))
		e.i64(int64(b.Thread))
		e.i64(b.StartNS)
		e.i64(b.DurationNS)
		e.str(b.Stack.Function)
		e.str(b.Stack.File)
		e.i64(int64(b.Stack.Line))
		e.i64(int64(b.Phase))
		for _, v := range b.Counters {
			e.f64(v)
		}
	}
	return e.sum()
}

// CanonicalHash returns the SHA-256 fingerprint of the trace's canonical
// encoding. The hash is stable across processes and platforms and changes
// whenever any field the pipeline can observe changes.
func (t *Trace) CanonicalHash() [32]byte {
	return newEncoder().trace(t)
}

// HashSequence combines the canonical hashes of a trace sequence into one
// fingerprint. Order matters: the pipeline's frame sequence is ordered,
// so [a, b] and [b, a] are different studies.
//
// The member hashes are independent, so they are computed by up to
// GOMAXPROCS workers, each with its own encoder; the calling goroutine
// is one of them, so a single trace starts no goroutine. The digests are
// then combined in sequence order.
func HashSequence(ts []*Trace) [32]byte {
	sums := make([][32]byte, len(ts))
	var next atomic.Int64
	work := func(e *encoder) {
		for i := int(next.Add(1)) - 1; i < len(ts); i = int(next.Add(1)) - 1 {
			sums[i] = e.trace(ts[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(ts), runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(newEncoder())
		}()
	}
	e := newEncoder()
	work(e)
	wg.Wait()

	e.tag('S')
	e.u64(uint64(len(ts)))
	for i := range sums {
		e.flushFull()
		e.buf = append(e.buf, sums[i][:]...)
	}
	return e.sum()
}
