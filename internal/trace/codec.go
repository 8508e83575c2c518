package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"perftrack/internal/metrics"
)

// The perftrack trace format is a line-oriented text format:
//
//	#PERFTRACK 1
//	#meta app=WRF label=128-tasks ranks=128 tasksPerNode=4 machine=MareNostrum compiler=gfortran
//	#param class=B
//	#counters PAPI_TOT_INS PAPI_TOT_CYC PAPI_L1_DCM PAPI_L2_DCM PAPI_TLB_DM PAPI_LST_INS
//	B <task> <thread> <startNS> <durNS> <func> <file> <line> <phase> <c0> <c1> ...
//
// String fields are quoted with strconv.Quote when they contain spaces or
// are empty; otherwise they appear bare. The format is deliberately simple
// enough to inspect with standard shell tools and diff across runs.

const (
	formatMagic   = "#PERFTRACK"
	formatVersion = 1
	// maxLineBytes caps one input line (4 MiB, the historical scanner
	// buffer bound). Longer lines are quarantined in lenient mode and
	// abort with a line number in strict mode; either way decoding no
	// longer dies mid-file without saying where.
	maxLineBytes = 1 << 22
)

// readLimitedLine reads one newline-terminated line of at most
// maxLineBytes bytes from br. Oversized lines are consumed to their end
// and reported tooLong with the content discarded, so the caller can
// quarantine them and keep going. The returned error is io.EOF exactly
// when the input is exhausted (possibly with a final unterminated line).
func readLimitedLine(br *bufio.Reader) (line string, tooLong bool, err error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			buf = append(buf, frag...)
			if len(buf) > maxLineBytes {
				// Drain the remainder of the oversized line.
				for {
					_, derr := br.ReadSlice('\n')
					if derr == bufio.ErrBufferFull {
						continue
					}
					return "", true, derr
				}
			}
			continue
		}
		if err != nil && err != io.EOF {
			return "", false, err
		}
		buf = append(buf, frag...)
		if len(buf) > maxLineBytes {
			return "", true, err
		}
		return string(buf), false, err
	}
}

// Write serialises the trace to w in the perftrack text format. Bursts are
// written in (task, time) order to make output deterministic. Every write
// is checked so a full disk or closed pipe surfaces as an error instead of
// a silently truncated file.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s %d\n", formatMagic, formatVersion); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "#meta app=%s label=%s ranks=%d tasksPerNode=%d machine=%s compiler=%s\n",
		quoteField(t.Meta.App), quoteField(t.Meta.Label), t.Meta.Ranks,
		t.Meta.TasksPerNode, quoteField(t.Meta.Machine), quoteField(t.Meta.Compiler)); err != nil {
		return err
	}
	keys := make([]string, 0, len(t.Meta.Params))
	for k := range t.Meta.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "#param %s=%s\n", quoteField(k), quoteField(t.Meta.Params[k])); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(bw, "#counters"); err != nil {
		return err
	}
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		if _, err := fmt.Fprintf(bw, " %s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}

	sorted := t.Clone()
	sorted.SortByTaskTime()
	for _, b := range sorted.Bursts {
		if _, err := fmt.Fprintf(bw, "B %d %d %d %d %s %s %d %d",
			b.Task, b.Thread, b.StartNS, b.DurationNS,
			quoteField(b.Stack.Function), quoteField(b.Stack.File), b.Stack.Line, b.Phase); err != nil {
			return err
		}
		for _, v := range b.Counters {
			if _, err := fmt.Fprintf(bw, " %s", formatCount(v)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile serialises the trace to the named file.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeOptions selects between strict, all-or-nothing decoding and
// lenient decoding, which quarantines malformed lines with line-numbered
// diagnostics and keeps going — the mode real, partially corrupted
// traces need. The zero value is maximally lenient.
type DecodeOptions struct {
	// Strict aborts at the first malformed line. False quarantines
	// malformed lines instead.
	Strict bool
	// MaxBadLines bounds how many malformed lines lenient mode tolerates
	// before giving up on the input entirely (0 = unlimited). Ignored in
	// strict mode.
	MaxBadLines int
}

// BadLine records one quarantined input line.
type BadLine struct {
	// Line is the 1-based line number in the input.
	Line int
	// Reason describes the parse failure, naming the offending field.
	Reason string
}

// DecodeDiagnostics reports what lenient decoding had to skip. For the
// binary columnar format, BadLine entries carry section numbers instead
// of line numbers.
type DecodeDiagnostics struct {
	// BadLines lists the quarantined lines (text) or sections (colbin)
	// in input order.
	BadLines []BadLine
	// MissingHeader is set when no #PERFTRACK magic line was seen.
	MissingHeader bool
	// Truncated is set when a colbin input ends without its end marker:
	// the decoded bursts are a clean prefix of a torn file.
	Truncated bool
}

// Skipped returns the number of quarantined lines.
func (d DecodeDiagnostics) Skipped() int { return len(d.BadLines) }

// Summary renders a short human-readable account, or "" when clean.
func (d DecodeDiagnostics) Summary() string {
	if len(d.BadLines) == 0 && !d.MissingHeader && !d.Truncated {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "skipped %d malformed line(s)", len(d.BadLines))
	if d.MissingHeader {
		sb.WriteString(", missing #PERFTRACK header")
	}
	if d.Truncated {
		sb.WriteString(", input truncated")
	}
	for i, bl := range d.BadLines {
		if i == 3 {
			fmt.Fprintf(&sb, "; (%d more)", len(d.BadLines)-i)
			break
		}
		fmt.Fprintf(&sb, "; line %d: %s", bl.Line, bl.Reason)
	}
	return sb.String()
}

// ReadWith parses a trace according to opts. In lenient mode malformed
// lines are quarantined into the returned diagnostics instead of failing
// the decode; an error is still returned for I/O failures, for inputs
// whose bad-line count exceeds opts.MaxBadLines, and for every malformed
// line in strict mode.
func ReadWith(r io.Reader, opts DecodeOptions) (*Trace, DecodeDiagnostics, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	t := &Trace{}
	var diag DecodeDiagnostics
	lineNo := 0
	counterOrder := defaultCounterOrder()
	sawMagic := false
	// quarantine routes one malformed line: strict mode fails, lenient
	// mode records it (and gives up past MaxBadLines).
	quarantine := func(err error) error {
		if opts.Strict {
			return fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		diag.BadLines = append(diag.BadLines, BadLine{Line: lineNo, Reason: err.Error()})
		if opts.MaxBadLines > 0 && len(diag.BadLines) > opts.MaxBadLines {
			return fmt.Errorf("trace: giving up after %d malformed lines (last: line %d: %v)",
				len(diag.BadLines), lineNo, err)
		}
		return nil
	}
	for {
		raw, tooLong, rerr := readLimitedLine(br)
		if rerr != nil && rerr != io.EOF {
			return nil, diag, rerr
		}
		atEOF := rerr == io.EOF
		if atEOF && raw == "" && !tooLong {
			break
		}
		lineNo++
		if tooLong {
			// An oversized line is one bad record, not a reason to drop
			// the rest of the trace: quarantine it in lenient mode, keep
			// the line-numbered abort in strict mode.
			if qerr := quarantine(fmt.Errorf("line exceeds %d-byte cap", maxLineBytes)); qerr != nil {
				return nil, diag, qerr
			}
			if atEOF {
				break
			}
			continue
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			if atEOF {
				break
			}
			continue
		}
		var err error
		switch {
		case strings.HasPrefix(line, formatMagic):
			fields := strings.Fields(line)
			if len(fields) != 2 {
				err = fmt.Errorf("malformed magic %q", line)
				break
			}
			v, verr := strconv.Atoi(fields[1])
			if verr != nil || v != formatVersion {
				err = fmt.Errorf("unsupported version %q", fields[1])
				break
			}
			sawMagic = true
		case strings.HasPrefix(line, "#meta"):
			err = parseMeta(line, &t.Meta)
		case strings.HasPrefix(line, "#param"):
			k, v, perr := parseParam(line)
			if perr != nil {
				err = perr
				break
			}
			if t.Meta.Params == nil {
				t.Meta.Params = map[string]string{}
			}
			t.Meta.Params[k] = v
		case strings.HasPrefix(line, "#counters"):
			order, cerr := parseCounters(line)
			if cerr != nil {
				err = cerr
				break
			}
			counterOrder = order
		case strings.HasPrefix(line, "#"):
			// Unknown comment/directive: ignore for forward compatibility.
		case strings.HasPrefix(line, "B "):
			b, berr := parseBurst(line, counterOrder)
			if berr != nil {
				err = berr
				break
			}
			t.Bursts = append(t.Bursts, b)
		default:
			err = fmt.Errorf("unrecognised record %q", line)
		}
		if err != nil {
			if qerr := quarantine(err); qerr != nil {
				return nil, diag, qerr
			}
		}
		if atEOF {
			break
		}
	}
	if !sawMagic {
		if opts.Strict {
			return nil, diag, fmt.Errorf("trace: missing %s header", formatMagic)
		}
		diag.MissingHeader = true
	}
	return t, diag, nil
}

func defaultCounterOrder() []metrics.Counter {
	order := make([]metrics.Counter, metrics.NumCounters)
	for i := range order {
		order[i] = metrics.Counter(i)
	}
	return order
}

// quoteField emits s bare when it is a single printable token, quoted
// otherwise, so the file remains whitespace-splittable.
func quoteField(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\"\\") {
		return strconv.Quote(s)
	}
	return s
}

// fieldScanner splits a line into tokens honouring quoted fields.
type fieldScanner struct {
	rest string
}

func (fs *fieldScanner) next() (string, error) {
	fs.rest = strings.TrimLeft(fs.rest, " \t")
	if fs.rest == "" {
		return "", io.EOF
	}
	if fs.rest[0] == '"' {
		// Quoted field: find the closing quote honouring escapes.
		for i := 1; i < len(fs.rest); i++ {
			if fs.rest[i] == '\\' {
				i++
				continue
			}
			if fs.rest[i] == '"' {
				tok := fs.rest[:i+1]
				fs.rest = fs.rest[i+1:]
				return strconv.Unquote(tok)
			}
		}
		return "", fmt.Errorf("unterminated quoted field %q", fs.rest)
	}
	i := strings.IndexAny(fs.rest, " \t")
	if i < 0 {
		tok := fs.rest
		fs.rest = ""
		return tok, nil
	}
	tok := fs.rest[:i]
	fs.rest = fs.rest[i:]
	return tok, nil
}

func (fs *fieldScanner) nextInt() (int, error) {
	tok, err := fs.next()
	if err == io.EOF {
		return 0, fmt.Errorf("missing value")
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("invalid integer %q", tok)
	}
	return n, nil
}

func (fs *fieldScanner) nextInt64() (int64, error) {
	tok, err := fs.next()
	if err == io.EOF {
		return 0, fmt.Errorf("missing value")
	}
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid integer %q", tok)
	}
	return n, nil
}

func (fs *fieldScanner) nextFloat() (float64, error) {
	tok, err := fs.next()
	if err == io.EOF {
		return 0, fmt.Errorf("missing value")
	}
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q", tok)
	}
	return v, nil
}

// nextKV reads one key=value pair where the value (and in #param lines the
// key) may be a quoted field. It returns io.EOF when the line is
// exhausted.
func (fs *fieldScanner) nextKV() (key, val string, err error) {
	fs.rest = strings.TrimLeft(fs.rest, " \t")
	if fs.rest == "" {
		return "", "", io.EOF
	}
	// Key: possibly quoted, terminated by '='.
	if fs.rest[0] == '"' {
		key, err = fs.next()
		if err != nil {
			return "", "", err
		}
		if fs.rest == "" || fs.rest[0] != '=' {
			return "", "", fmt.Errorf("malformed key=value near %q", fs.rest)
		}
		fs.rest = fs.rest[1:]
	} else {
		eq := strings.IndexByte(fs.rest, '=')
		sp := strings.IndexAny(fs.rest, " \t")
		if eq < 0 || (sp >= 0 && sp < eq) {
			return "", "", fmt.Errorf("malformed key=value near %q", fs.rest)
		}
		key = fs.rest[:eq]
		fs.rest = fs.rest[eq+1:]
	}
	// Value: a quoted or bare field starting immediately after '='.
	if fs.rest == "" || fs.rest[0] == ' ' || fs.rest[0] == '\t' {
		return key, "", nil
	}
	val, err = fs.next()
	if err == io.EOF {
		return key, "", nil
	}
	return key, val, err
}

func parseMeta(line string, m *Metadata) error {
	fs := &fieldScanner{rest: strings.TrimPrefix(line, "#meta")}
	for {
		k, v, err := fs.nextKV()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch k {
		case "app":
			m.App = v
		case "label":
			m.Label = v
		case "ranks":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("ranks: invalid integer %q", v)
			}
			m.Ranks = n
		case "tasksPerNode":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("tasksPerNode: invalid integer %q", v)
			}
			m.TasksPerNode = n
		case "machine":
			m.Machine = v
		case "compiler":
			m.Compiler = v
		default:
			// Ignore unknown keys for forward compatibility.
		}
	}
}

func parseParam(line string) (key, val string, err error) {
	fs := &fieldScanner{rest: strings.TrimPrefix(line, "#param")}
	key, val, err = fs.nextKV()
	if err != nil {
		return "", "", fmt.Errorf("malformed param line: %v", err)
	}
	return key, val, nil
}

func parseCounters(line string) ([]metrics.Counter, error) {
	names := strings.Fields(line)[1:]
	order := make([]metrics.Counter, len(names))
	for i, n := range names {
		c, ok := metrics.CounterByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown counter %q", n)
		}
		order[i] = c
	}
	return order, nil
}

func parseBurst(line string, order []metrics.Counter) (Burst, error) {
	fs := &fieldScanner{rest: strings.TrimPrefix(line, "B ")}
	var b Burst
	var err error
	if b.Task, err = fs.nextInt(); err != nil {
		return b, fmt.Errorf("task: %w", err)
	}
	if b.Thread, err = fs.nextInt(); err != nil {
		return b, fmt.Errorf("thread: %w", err)
	}
	if b.StartNS, err = fs.nextInt64(); err != nil {
		return b, fmt.Errorf("start: %w", err)
	}
	if b.DurationNS, err = fs.nextInt64(); err != nil {
		return b, fmt.Errorf("duration: %w", err)
	}
	if b.Stack.Function, err = fs.next(); err != nil {
		return b, fmt.Errorf("function: %w", fieldErr(err))
	}
	if b.Stack.File, err = fs.next(); err != nil {
		return b, fmt.Errorf("file: %w", fieldErr(err))
	}
	if b.Stack.Line, err = fs.nextInt(); err != nil {
		return b, fmt.Errorf("line: %w", err)
	}
	if b.Phase, err = fs.nextInt(); err != nil {
		return b, fmt.Errorf("phase: %w", err)
	}
	for _, c := range order {
		v, err := fs.nextFloat()
		if err != nil {
			return b, fmt.Errorf("counter %s: %w", c, err)
		}
		b.Counters[c] = v
	}
	if _, err := fs.next(); err != io.EOF {
		return b, fmt.Errorf("trailing fields in burst record")
	}
	return b, nil
}

// fieldErr converts the scanner's io.EOF sentinel into a readable
// message for error chains shown to users.
func fieldErr(err error) error {
	if err == io.EOF {
		return fmt.Errorf("missing value")
	}
	return err
}

// formatCount renders a counter value compactly: integral values print
// without a fractional part.
func formatCount(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
