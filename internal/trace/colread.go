package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sync"

	"perftrack/internal/metrics"
)

// Colbin decoding. The reader walks the CRC-framed sections once to find
// block boundaries (cheap: header reads plus burst-count varints), then
// decodes the blocks in parallel — every delta chain restarts at a block
// boundary, so blocks are independent given the string table. Decode cost
// is a handful of varint adds per burst plus a raw float64 column copy:
// memory bandwidth, not strconv.
//
// Corruption policy mirrors the store scanner: a section whose CRC
// mismatches is quarantined in lenient mode (the frame length still
// delimits it, so scanning resynchronises at the next section) and is a
// loud error in strict mode. A file without its 'E' end marker is torn:
// strict errors, lenient keeps the decoded prefix and reports Truncated.
// Header sections ('M', 'S') have no redundancy to recover from, so
// corruption there fails the decode in both modes — never a silent
// misdecode.

// colMeta is the parsed 'M' section.
type colMeta struct {
	meta  Metadata
	order []metrics.Counter
	total uint64 // declared burst count, cross-checked in strict mode
}

// colBlock is one 'B' section located by the scan, not yet CRC-verified.
type colBlock struct {
	section int    // 1-based section index, for diagnostics
	body    []byte // payload after the kind byte (burst count included)
	crc     uint32 // frame CRC over kind+payload
	frame   []byte // kind byte + payload, the CRC input
	n       int    // declared burst count
	off     int    // cumulative burst offset in the output slice
}

// errNotColbin reports input that does not start with the colbin magic.
var errNotColbin = fmt.Errorf("trace: not a colbin file (missing %q magic)", ColbinMagic)

// Decode sniffs the payload format — colbin magic or perftrack text —
// and decodes accordingly. It is the entry point for callers that accept
// either format (stream appends, ReadFile).
func Decode(data []byte, opts DecodeOptions) (*Trace, DecodeDiagnostics, error) {
	if IsColbin(data) {
		return DecodeColbinWith(data, opts)
	}
	return ReadWith(bytes.NewReader(data), opts)
}

// ReadFile reads the named trace file according to opts, sniffing the
// format. Decode errors are prefixed with the path.
func ReadFile(path string, opts DecodeOptions) (*Trace, DecodeDiagnostics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, DecodeDiagnostics{}, err
	}
	t, diag, err := Decode(data, opts)
	if err != nil {
		return nil, diag, fmt.Errorf("%s: %w", path, err)
	}
	return t, diag, nil
}

// SplitColbin splits a body of concatenated colbin traces into one byte
// slice per trace (subslices of data, no copying). Each trace runs from
// its magic through its 'E' section; the next byte after an 'E' must
// start a new magic. Frame CRCs are not verified here — the decoder does
// that — but framing must be intact for the split to be unambiguous.
func SplitColbin(data []byte) ([][]byte, error) {
	var out [][]byte
	for len(data) > 0 {
		if !IsColbin(data) {
			return nil, errNotColbin
		}
		off := len(ColbinMagic)
		for {
			if off+8 > len(data) {
				return nil, fmt.Errorf("trace: colbin trace %d: torn section header", len(out)+1)
			}
			bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
			if bodyLen <= 0 || bodyLen > colbinMaxBody {
				return nil, fmt.Errorf("trace: colbin trace %d: implausible section length %d", len(out)+1, bodyLen)
			}
			if off+8+bodyLen > len(data) {
				return nil, fmt.Errorf("trace: colbin trace %d: torn section body", len(out)+1)
			}
			kind := data[off+8]
			off += 8 + bodyLen
			if kind == sectionEnd {
				break
			}
		}
		out = append(out, data[:off])
		data = data[off:]
	}
	if len(out) == 0 {
		return nil, errNotColbin
	}
	return out, nil
}

// DecodeColbinWith parses a binary columnar trace according to opts. In
// lenient mode corrupt blocks are quarantined into the diagnostics (the
// surviving bursts keep their order) and a torn tail reports Truncated;
// header corruption still errors, since nothing can be recovered past it.
func DecodeColbinWith(data []byte, opts DecodeOptions) (*Trace, DecodeDiagnostics, error) {
	var diag DecodeDiagnostics
	if !IsColbin(data) {
		return nil, diag, errNotColbin
	}
	quarantine := func(section int, err error) error {
		if opts.Strict {
			return fmt.Errorf("trace: colbin section %d: %w", section, err)
		}
		diag.BadLines = append(diag.BadLines, BadLine{Line: section, Reason: err.Error()})
		if opts.MaxBadLines > 0 && len(diag.BadLines) > opts.MaxBadLines {
			return fmt.Errorf("trace: giving up after %d corrupt colbin sections (last: section %d: %v)",
				len(diag.BadLines), section, err)
		}
		return nil
	}

	// Pass 1: walk the frames. Header sections are parsed (and CRC
	// checked) inline; blocks are located and counted only, so the heavy
	// per-burst work can fan out afterwards.
	var (
		meta    *colMeta
		strtab  []string
		blocks  []colBlock
		sawEnd  bool
		section int
		total   int
	)
	off := len(ColbinMagic)
	for off < len(data) && !sawEnd {
		section++
		if off+8 > len(data) {
			if opts.Strict {
				return nil, diag, fmt.Errorf("trace: colbin section %d: torn section header", section)
			}
			diag.Truncated = true
			break
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if bodyLen <= 0 || bodyLen > colbinMaxBody {
			// Framing is lost: without a trustworthy length there is no
			// next section to resynchronise at.
			if opts.Strict {
				return nil, diag, fmt.Errorf("trace: colbin section %d: implausible length %d", section, bodyLen)
			}
			diag.BadLines = append(diag.BadLines, BadLine{Line: section,
				Reason: fmt.Sprintf("implausible section length %d; framing lost", bodyLen)})
			diag.Truncated = true
			break
		}
		if off+8+bodyLen > len(data) {
			if opts.Strict {
				return nil, diag, fmt.Errorf("trace: colbin section %d: torn section body", section)
			}
			diag.Truncated = true
			break
		}
		frame := data[off+8 : off+8+bodyLen]
		off += 8 + bodyLen
		kind, payload := frame[0], frame[1:]

		switch kind {
		case sectionMeta, sectionStrtab, sectionEnd:
			// Header and trailer sections: CRC inline, no recovery
			// possible for M/S.
			if crc32.Checksum(frame, colbinCRC) != wantCRC {
				if kind == sectionEnd {
					if err := quarantine(section, fmt.Errorf("end marker crc mismatch")); err != nil {
						return nil, diag, err
					}
					diag.Truncated = true
					sawEnd = true // framing consumed it; stop here
					continue
				}
				return nil, diag, fmt.Errorf("trace: colbin section %d: header section crc mismatch", section)
			}
			switch kind {
			case sectionMeta:
				if meta != nil {
					return nil, diag, fmt.Errorf("trace: colbin section %d: duplicate metadata section", section)
				}
				m, err := parseColMeta(payload)
				if err != nil {
					return nil, diag, fmt.Errorf("trace: colbin section %d: %w", section, err)
				}
				meta = m
			case sectionStrtab:
				if meta == nil {
					return nil, diag, fmt.Errorf("trace: colbin section %d: string table before metadata", section)
				}
				if strtab != nil {
					return nil, diag, fmt.Errorf("trace: colbin section %d: duplicate string table", section)
				}
				st, err := parseColStrtab(payload)
				if err != nil {
					return nil, diag, fmt.Errorf("trace: colbin section %d: %w", section, err)
				}
				strtab = st
			case sectionEnd:
				n, k := binary.Uvarint(payload)
				if k <= 0 {
					return nil, diag, fmt.Errorf("trace: colbin section %d: malformed end marker", section)
				}
				if opts.Strict && n != uint64(total) {
					return nil, diag, fmt.Errorf("trace: colbin section %d: end marker counts %d bursts, blocks carry %d", section, n, total)
				}
				sawEnd = true
			}
		case sectionBlock:
			if meta == nil || strtab == nil {
				return nil, diag, fmt.Errorf("trace: colbin section %d: burst block before metadata/string table", section)
			}
			n, k := binary.Uvarint(payload)
			// The count gates the output allocation, so bound it by what
			// the payload could possibly hold before trusting it (CRC is
			// checked later, in the parallel phase). The bound is taken
			// in uint64: converting first would let a count near 2^64
			// wrap negative and slip past it.
			minPer := 8 + 8*len(meta.order)
			if k <= 0 || n > uint64(len(payload)/minPer+1) {
				if err := quarantine(section, fmt.Errorf("implausible block burst count")); err != nil {
					return nil, diag, err
				}
				continue
			}
			blocks = append(blocks, colBlock{
				section: section, body: payload[k:], crc: wantCRC, frame: frame,
				n: int(n), off: total,
			})
			total += int(n)
		default:
			// Unknown section kind: strict rejects (version skew is a
			// format error, not forward compatibility), lenient skips.
			if err := quarantine(section, fmt.Errorf("unknown section kind %q", kind)); err != nil {
				return nil, diag, err
			}
		}
	}
	if meta == nil {
		return nil, diag, fmt.Errorf("trace: colbin file has no metadata section")
	}
	if strtab == nil && total > 0 {
		return nil, diag, fmt.Errorf("trace: colbin file has burst blocks but no string table")
	}
	if !sawEnd {
		if opts.Strict {
			return nil, diag, fmt.Errorf("trace: colbin file is torn: missing end marker")
		}
		diag.Truncated = true
	}
	if sawEnd && off < len(data) {
		if opts.Strict {
			return nil, diag, fmt.Errorf("trace: %d trailing bytes after colbin end marker", len(data)-off)
		}
		diag.BadLines = append(diag.BadLines, BadLine{Line: section + 1,
			Reason: fmt.Sprintf("%d trailing bytes after end marker", len(data)-off)})
	}
	if opts.Strict && uint64(total) != meta.total {
		return nil, diag, fmt.Errorf("trace: colbin metadata counts %d bursts, blocks carry %d", meta.total, total)
	}

	// Pass 2: decode blocks in parallel into one contiguous burst slice.
	t := &Trace{Meta: meta.meta, Bursts: make([]Burst, total)}
	bad := make([]error, len(blocks))
	runColBlocks(len(blocks), func(i int) {
		b := blocks[i]
		if crc32.Checksum(b.frame, colbinCRC) != b.crc {
			bad[i] = fmt.Errorf("block crc mismatch (%d bursts quarantined)", b.n)
			return
		}
		bad[i] = decodeColBlock(b.body, t.Bursts[b.off:b.off+b.n], strtab, meta.order)
		if bad[i] != nil {
			bad[i] = fmt.Errorf("%v (%d bursts quarantined)", bad[i], b.n)
		}
	})
	// Compact out quarantined block ranges, preserving order.
	w := 0
	for i, b := range blocks {
		if bad[i] != nil {
			if err := quarantine(b.section, bad[i]); err != nil {
				return nil, diag, err
			}
			continue
		}
		if w != b.off {
			copy(t.Bursts[w:], t.Bursts[b.off:b.off+b.n])
		}
		w += b.n
	}
	t.Bursts = t.Bursts[:w]
	return t, diag, nil
}

// parseColMeta decodes the 'M' payload.
func parseColMeta(p []byte) (*colMeta, error) {
	r := colCursor{buf: p}
	m := &colMeta{}
	m.meta.App = r.str("app")
	m.meta.Label = r.str("label")
	m.meta.Ranks = int(r.varint("ranks"))
	m.meta.TasksPerNode = int(r.varint("tasksPerNode"))
	m.meta.Machine = r.str("machine")
	m.meta.Compiler = r.str("compiler")
	nparams := r.uvarint("param count")
	if r.err == nil && nparams > uint64(len(p)) {
		return nil, fmt.Errorf("implausible param count %d", nparams)
	}
	for i := uint64(0); i < nparams && r.err == nil; i++ {
		k := r.str("param key")
		v := r.str("param value")
		if r.err == nil {
			if m.meta.Params == nil {
				m.meta.Params = map[string]string{}
			}
			m.meta.Params[k] = v
		}
	}
	ncounters := r.uvarint("counter count")
	if r.err == nil && ncounters > uint64(len(p)) {
		return nil, fmt.Errorf("implausible counter count %d", ncounters)
	}
	for i := uint64(0); i < ncounters && r.err == nil; i++ {
		name := r.str("counter name")
		if r.err != nil {
			break
		}
		c, ok := metrics.CounterByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown counter %q", name)
		}
		m.order = append(m.order, c)
	}
	m.total = r.uvarint("burst count")
	r.uvarint("block size") // the writer's block size hint: informational
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("trailing bytes in metadata section")
	}
	return m, nil
}

// parseColStrtab decodes the 'S' payload.
func parseColStrtab(p []byte) ([]string, error) {
	r := colCursor{buf: p}
	n := r.uvarint("string count")
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("implausible string count %d", n)
	}
	table := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		table = append(table, r.str("string"))
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("trailing bytes in string table")
	}
	return table, nil
}

// decodeColBlock decodes one CRC-verified block payload (burst count
// already consumed) into dst. The column order here is the pinned format:
// it must match the writer and is covered by the golden-layout test.
func decodeColBlock(p []byte, dst []Burst, strtab []string, order []metrics.Counter) error {
	n := len(dst)
	off := 0
	col := func(set func(i int, v int64)) error {
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, k := binary.Uvarint(p[off:])
			if k <= 0 {
				return fmt.Errorf("malformed varint column")
			}
			off += k
			prev += unzigzag(u)
			set(i, prev)
		}
		return nil
	}
	if err := col(func(i int, v int64) { dst[i].Task = int(v) }); err != nil {
		return err
	}
	if err := col(func(i int, v int64) { dst[i].Thread = int(v) }); err != nil {
		return err
	}
	if err := col(func(i int, v int64) { dst[i].StartNS = v }); err != nil {
		return err
	}
	if err := col(func(i int, v int64) { dst[i].DurationNS = v }); err != nil {
		return err
	}
	var badIdx error
	idx := func(v int64) string {
		if v < 0 || v >= int64(len(strtab)) {
			badIdx = fmt.Errorf("string index %d outside table of %d", v, len(strtab))
			return ""
		}
		return strtab[v]
	}
	if err := col(func(i int, v int64) { dst[i].Stack.Function = idx(v) }); err != nil {
		return err
	}
	if err := col(func(i int, v int64) { dst[i].Stack.File = idx(v) }); err != nil {
		return err
	}
	if badIdx != nil {
		return badIdx
	}
	if err := col(func(i int, v int64) { dst[i].Stack.Line = int(v) }); err != nil {
		return err
	}
	if err := col(func(i int, v int64) { dst[i].Phase = int(v) }); err != nil {
		return err
	}
	if len(p)-off != n*8*len(order) {
		return fmt.Errorf("counter columns carry %d bytes, want %d", len(p)-off, n*8*len(order))
	}
	for _, c := range order {
		for i := 0; i < n; i++ {
			dst[i].Counters[c] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
	}
	return nil
}

// colCursor is a tiny bounds-checked reader over a section payload.
type colCursor struct {
	buf []byte
	off int
	err error
}

func (r *colCursor) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.err = fmt.Errorf("malformed %s", what)
		return 0
	}
	r.off += k
	return v
}

func (r *colCursor) varint(what string) int64 { return unzigzag(r.uvarint(what)) }

func (r *colCursor) str(what string) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("%s overruns section", what)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// runColBlocks fans fn(0..n-1) across at most GOMAXPROCS goroutines —
// the same bounded-pool pattern as the analysis core, local to this
// package because core depends on trace.
func runColBlocks(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
