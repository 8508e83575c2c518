// Package service turns the perftrack library into a tracking-as-a-service
// daemon: a bounded job queue feeding a worker pool, a content-addressed
// result cache keyed by the canonical hash of each job's inputs, and
// built-in Prometheus-text metrics. The HTTP surface is:
//
//	POST /v1/jobs            submit a study name or uploaded traces + config
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/result the result JSON (byte-deterministic export)
//	GET  /v1/studies          the catalog
//	GET  /v1/results          the persistent store's record listing
//	GET  /v1/results/{key}    a stored result by (abbreviable) key
//	GET  /v1/series           the named run series present in the store
//	GET  /v1/series/{name}/trajectories  cross-run trajectory chaining
//	GET  /v1/series/{name}/regressions   changepoint verdicts per trajectory
//	POST /v1/streams          open a live-ingestion stream (journaled, resumable)
//	GET  /v1/streams          list resident streams
//	GET  /v1/streams/{id}     stream status
//	POST /v1/streams/{id}/bursts  append a burst chunk (429 under backpressure)
//	POST /v1/streams/{id}/finish  seal the open window and retire the stream
//	GET  /v1/streams/{id}/events  rolling per-window deltas (SSE or long-poll)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness + degraded-mode diagnostics
//	GET  /readyz              readiness: 503 during journal replay or open breakers
//
// Backpressure is explicit: when the queue is full a submission is
// rejected with 429 and a Retry-After header rather than queued without
// bound. Identical submissions are collapsed: a cache hit returns the
// stored bytes instantly, and concurrent duplicates attach to the one
// in-flight job (singleflight) so the pipeline runs exactly once per
// distinct input.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"perftrack/internal/apps"
	"perftrack/internal/core"
	"perftrack/internal/faults"
	"perftrack/internal/mesh"
	"perftrack/internal/store"
	"perftrack/internal/trace"
)

// Config parametrises the daemon.
type Config struct {
	// Workers is the worker pool size (default 4).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64). A full queue rejects submissions with 429.
	QueueDepth int
	// JobTimeout bounds each job's pipeline execution (default 2m).
	JobTimeout time.Duration
	// CacheMaxEntries / CacheMaxBytes bound the result cache
	// (defaults 256 entries, 256 MiB).
	CacheMaxEntries int
	CacheMaxBytes   int64
	// RetryAfter is the backoff hint sent with 429 responses
	// (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body (default 64 MiB).
	MaxBodyBytes int64
	// StoreDir, when set, enables perfdb: every completed analysis is
	// appended to the persistent store there, cache misses read through
	// it, and the series/trajectory endpoints come alive. It also
	// enables the job journal (crash-durable submissions) unless
	// JournalDisabled is set.
	StoreDir string
	// StoreMaxSegmentBytes / StoreSyncEvery pass through to the store
	// (zero means the store's own defaults: 64 MiB segments, fsync
	// every 8 appends).
	StoreMaxSegmentBytes int64
	StoreSyncEvery       int
	// TraceCacheDir holds the convert-on-first-read trace cache: binary
	// columnar conversions of uploaded text traces, keyed by content
	// hash, so repeat submissions skip the text parse. Empty defaults to
	// <StoreDir>/tracecache when StoreDir is set (and disables the cache
	// otherwise); TraceCacheDisabled turns it off unconditionally.
	// TraceCacheMaxBytes bounds the resident conversions (default
	// 256 MiB; the cache is a pure accelerator, so eviction only costs a
	// re-parse).
	TraceCacheDir      string
	TraceCacheMaxBytes int64
	TraceCacheDisabled bool
	// JournalDisabled turns off the job journal even when StoreDir is
	// set: submissions are acknowledged from memory only, as before the
	// fault-tolerance layer.
	JournalDisabled bool
	// JournalSyncEvery / JournalCompactEvery pass through to the journal
	// (zero means its defaults: resolutions batch 8 per fsync, compact
	// every 512 resolutions). Intents always fsync before the ack.
	JournalSyncEvery    int
	JournalCompactEvery int
	// StageTimeout, when positive, bounds each pipeline stage (prepare /
	// cluster / track / export) individually, inside the overall
	// JobTimeout. Zero disables per-stage budgets.
	StageTimeout time.Duration
	// StoreRetries bounds the retry attempts when appending a completed
	// result to the store fails (default 3; the first try is not a
	// retry). Retries back off exponentially with jitter between
	// RetryBase (default 25ms) and RetryMax (default 1s).
	StoreRetries int
	RetryBase    time.Duration
	RetryMax     time.Duration
	// BreakerThreshold consecutive failures open a circuit breaker
	// (default 5); an open breaker admits a probe after BreakerCooldown
	// (default 5s). One breaker guards store writes, another pipeline
	// executions; either being open degrades trackd to read-only.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// StoreFS, when set, substitutes the filesystem under the store and
	// journal — the chaos tests plug in faults.FaultFS here.
	StoreFS faults.FS
	// StreamMaxSessions bounds the resident streaming sessions (default
	// 64); creations beyond it answer 429. StreamMaxPending bounds the
	// in-flight burst chunks per stream before backpressure kicks in
	// (default 4). StreamEventBuffer is the per-stream delta ring a slow
	// subscriber can lag behind before missing events (default 256).
	StreamMaxSessions int
	StreamMaxPending  int
	StreamEventBuffer int
	// Mesh enables cluster mode when Mesh.NodeID is set: jobs route to
	// ring owners, results replicate to Mesh.Replicas nodes, and read
	// endpoints scatter-gather the whole cluster. Requires StoreDir.
	Mesh mesh.Config

	// Test seams, settable only from inside the package. Unlike the
	// Server fields of the same names, these are installed before the
	// worker pool and the replay goroutine start, so hooks observe
	// startup replay without racing it.
	testExecHook      func(key string)
	testPersistHook   func(key string, err error)
	testReplicateHook func(key, peer string, err error)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.CacheMaxEntries <= 0 {
		c.CacheMaxEntries = 256
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.TraceCacheDir == "" && c.StoreDir != "" {
		c.TraceCacheDir = filepath.Join(c.StoreDir, "tracecache")
	}
	if c.TraceCacheMaxBytes <= 0 {
		c.TraceCacheMaxBytes = 256 << 20
	}
	if c.StoreRetries <= 0 {
		c.StoreRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.StreamMaxSessions <= 0 {
		c.StreamMaxSessions = 64
	}
	if c.StreamMaxPending <= 0 {
		c.StreamMaxPending = 4
	}
	if c.StreamEventBuffer <= 0 {
		c.StreamEventBuffer = 256
	}
	return c
}

// ErrQueueFull is returned when the bounded queue cannot accept a job.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrShuttingDown is returned for submissions after Shutdown began.
var ErrShuttingDown = errors.New("service: shutting down")

// Server is the tracking service: call New, mount Handler, and Shutdown
// when done.
type Server struct {
	cfg     Config
	cache   *Cache
	store   *store.Store
	journal *store.Journal
	// tcache is the convert-on-first-read trace conversion cache (nil
	// when disabled); resolveThrough reads and fills it.
	tcache *store.TraceCache

	// mesh and meshJournal come alive in cluster mode: the ring +
	// membership node and the hand-off journal recording replication
	// debts and in-progress rebalances. rebalanceMu serialises Rebalance
	// rounds.
	mesh        *mesh.Node
	meshJournal *store.Journal
	rebalanceMu sync.Mutex

	// streams holds the resident live-ingestion sessions; streamJournal
	// (under <store>/streams) records which of them must survive a
	// restart.
	streams       *streamRegistry
	streamJournal *store.Journal
	stm           streamMetrics

	reg *Registry
	m   serverMetrics
	sm  storeMetrics
	jm  journalMetrics
	rm  resilienceMetrics
	mm  meshMetrics

	// storeBreaker trips on consecutive failed store appends,
	// execBreaker on consecutive failed pipeline executions. Either
	// being open refuses new write work (read paths keep serving).
	storeBreaker *Breaker
	execBreaker  *Breaker

	// replayDone closes once startup journal replay (if any) has driven
	// every recovered intent to a terminal state; /readyz gates on it.
	replayDone chan struct{}

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	queue   chan *Job

	mu       sync.Mutex
	closed   bool
	seq      int
	jobs     map[string]*Job
	order    []string        // job ids in submission order
	inflight map[string]*Job // cache key -> queued/running job (singleflight)

	// Cumulative degraded-mode accounting across all completed jobs,
	// surfaced by /healthz (the service-level continuation of the
	// library's Diagnostics).
	health healthAccum

	// testGate, when set before any submission, blocks each job at the
	// start of execution until the channel is closed. Tests use it to
	// hold workers busy deterministically (queue saturation,
	// singleflight, shutdown-cancellation scenarios).
	testGate chan struct{}
	// testExecHook / testPersistHook, when set before any submission,
	// observe each pipeline execution start and each persist outcome.
	// The chaos harness counts fingerprint executions and persist
	// failures through them. testAppendFault, when set, is consulted
	// before each store append attempt and its non-nil error replaces
	// the append — deterministic store-write failure injection above
	// the filesystem.
	testExecHook      func(key string)
	testPersistHook   func(key string, err error)
	testAppendFault   func(key string) error
	testReplicateHook func(key, peer string, err error)
}

type healthAccum struct {
	jobsWithDiagnostics int
	burstsQuarantined   int
	linesSkipped        int
	framesDegraded      int
	framesBridged       int
	lastSummary         string
}

type serverMetrics struct {
	jobsAccepted   *Counter
	jobsRejected   *Counter
	jobsCoalesced  *Counter
	jobsExecuted   *Counter
	jobsCompleted  *Counter
	jobsFailed     *Counter
	jobsCanceled   *Counter
	jobsBinary     *Counter
	cacheHits      *Counter
	cacheMisses    *Counter
	cacheEvictions *Counter
	cacheEntries   *Gauge
	cacheBytes     *Gauge
	queueDepth     *Gauge
	queueCapacity  *Gauge
	workersBusy    *Gauge
	workersTotal   *Gauge
	stagePrepare   *Histogram
	stageCluster   *Histogram
	stageTrack     *Histogram
	stageExport    *Histogram
	jobLatency     *Histogram
}

// New starts a server: the worker pool begins consuming immediately.
// When cfg.StoreDir is set, the persistent store is opened (and its
// history recovered) before the first job can complete.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes),
		reg:      NewRegistry(),
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
	s.rootCtx, s.cancel = context.WithCancel(context.Background())
	s.testExecHook, s.testPersistHook = cfg.testExecHook, cfg.testPersistHook
	s.testReplicateHook = cfg.testReplicateHook

	r := s.reg
	s.m = serverMetrics{
		jobsAccepted:   r.NewCounter("trackd_jobs_accepted_total", "Submissions admitted (including cache hits and coalesced duplicates)."),
		jobsRejected:   r.NewCounter("trackd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full."),
		jobsCoalesced:  r.NewCounter("trackd_jobs_coalesced_total", "Submissions attached to an identical in-flight job (singleflight)."),
		jobsExecuted:   r.NewCounter("trackd_jobs_executed_total", "Pipeline executions started by workers (cache misses only)."),
		jobsCompleted:  r.NewCounter("trackd_jobs_completed_total", "Jobs finished successfully (including instant cache hits)."),
		jobsFailed:     r.NewCounter("trackd_jobs_failed_total", "Jobs that ended in error (including per-job timeouts)."),
		jobsCanceled:   r.NewCounter("trackd_jobs_canceled_total", "Jobs canceled by daemon shutdown."),
		jobsBinary:     r.NewCounter("trackd_jobs_binary_total", "Submissions whose body arrived in the binary columnar trace format."),
		cacheHits:      r.NewCounter("trackd_cache_hits_total", "Submissions served from the content-addressed result cache."),
		cacheMisses:    r.NewCounter("trackd_cache_misses_total", "Submissions whose key was absent from the result cache."),
		cacheEvictions: r.NewCounter("trackd_cache_evictions_total", "Results evicted from the cache by the LRU bounds."),
		cacheEntries:   r.NewGaugeFunc("trackd_cache_entries", "Results currently cached.", func() int64 { return int64(s.cache.Len()) }),
		cacheBytes:     r.NewGaugeFunc("trackd_cache_bytes", "Total bytes of cached results.", func() int64 { return s.cache.Bytes() }),
		queueDepth:     r.NewGaugeFunc("trackd_queue_depth", "Jobs waiting for a worker.", func() int64 { return int64(len(s.queue)) }),
		queueCapacity:  r.NewGaugeFunc("trackd_queue_capacity", "Bound of the job queue.", func() int64 { return int64(cfg.QueueDepth) }),
		workersBusy:    r.NewGauge("trackd_workers_busy", "Workers currently executing a job."),
		workersTotal:   r.NewGaugeFunc("trackd_workers", "Size of the worker pool.", func() int64 { return int64(cfg.Workers) }),
		stagePrepare:   r.NewHistogram("trackd_stage_prepare_seconds", "Latency of input preparation (simulation or trace windowing).", nil),
		stageCluster:   r.NewHistogram("trackd_stage_cluster_seconds", "Latency of frame building and clustering.", nil),
		stageTrack:     r.NewHistogram("trackd_stage_track_seconds", "Latency of the tracking combination algorithm.", nil),
		stageExport:    r.NewHistogram("trackd_stage_export_seconds", "Latency of result serialisation.", nil),
		jobLatency:     r.NewHistogram("trackd_job_seconds", "End-to-end job latency, submission to terminal state.", nil),
	}
	s.cache.onEvict = func() { s.m.cacheEvictions.Inc() }

	s.rm = resilienceMetrics{
		retryAttempts:     r.NewCounter("trackd_store_retry_attempts_total", "Retried store appends after a failure (first attempts not counted)."),
		storeBreakerFlips: r.NewCounter("trackd_store_breaker_transitions_total", "Store circuit breaker open/close transitions."),
		execBreakerFlips:  r.NewCounter("trackd_exec_breaker_transitions_total", "Execution circuit breaker open/close transitions."),
		degradedResponses: r.NewCounter("trackd_degraded_responses_total", "Submissions refused with 503 because the service was degraded to read-only."),
	}
	s.storeBreaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func(bool) { s.rm.storeBreakerFlips.Inc() })
	s.execBreaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func(bool) { s.rm.execBreakerFlips.Inc() })
	r.NewGaugeFunc("trackd_store_breaker_open", "1 while the store circuit breaker is open.", func() int64 {
		if s.storeBreaker.Open() {
			return 1
		}
		return 0
	})
	r.NewGaugeFunc("trackd_exec_breaker_open", "1 while the execution circuit breaker is open.", func() int64 {
		if s.execBreaker.Open() {
			return 1
		}
		return 0
	})

	if cfg.TraceCacheDir != "" && !cfg.TraceCacheDisabled {
		tc, err := store.OpenTraceCache(cfg.TraceCacheDir, cfg.TraceCacheMaxBytes)
		if err != nil {
			s.cancel()
			return nil, err
		}
		s.tcache = tc
		r.NewGaugeFunc("trackd_trace_cache_hits_total", "Text uploads served from their cached binary conversion.", func() int64 { return tc.Stats().Hits })
		r.NewGaugeFunc("trackd_trace_cache_misses_total", "Text uploads that paid the text parse.", func() int64 { return tc.Stats().Misses })
		r.NewGaugeFunc("trackd_trace_cache_entries", "Cached trace conversions resident on disk.", func() int64 { return int64(tc.Stats().Entries) })
		r.NewGaugeFunc("trackd_trace_cache_bytes", "Total bytes of cached trace conversions.", func() int64 { return tc.Stats().Bytes })
	}

	s.replayDone = make(chan struct{})
	if cfg.StoreDir != "" {
		if err := s.openStore(); err != nil {
			s.cancel()
			return nil, err
		}
		if !cfg.JournalDisabled {
			if err := s.openJournal(); err != nil {
				s.store.Close()
				s.cancel()
				return nil, err
			}
		}
	}
	// Streams come after the store (resume restores sealed windows from
	// it) and before the HTTP surface can serve.
	if err := s.openStreams(); err != nil {
		if s.store != nil {
			s.store.Close()
		}
		if s.journal != nil {
			s.journal.Close()
		}
		s.cancel()
		return nil, err
	}
	if cfg.Mesh.NodeID != "" {
		if cfg.StoreDir == "" {
			s.cancel()
			return nil, fmt.Errorf("service: cluster mode requires a store directory (replication needs perfdb)")
		}
		if err := s.openMesh(); err != nil {
			s.store.Close()
			if s.journal != nil {
				s.journal.Close()
			}
			s.cancel()
			return nil, err
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}

	// Startup replay: drive every pending intent to a terminal state in
	// the background; /readyz reports 503 until it finishes.
	if s.journal != nil {
		if pending := s.journal.Pending(); len(pending) > 0 {
			go s.replay(pending)
		} else {
			close(s.replayDone)
		}
	} else {
		close(s.replayDone)
	}
	return s, nil
}

// Submit resolves the request, consults the cache and singleflight table,
// and either returns a finished job (cache hit), an existing identical
// in-flight job (coalesced=true), or enqueues a new one. ErrQueueFull
// means the caller should retry later (HTTP 429); ErrDegraded means the
// service is read-only (503) because a breaker is open or the journal
// cannot make the submission durable. When the journal is enabled, a
// nil error for a fresh job means its intent is fsynced: the job
// survives any crash from this point on.
//
// In cluster mode a key owned by another node is forwarded there after
// the local intent fsync — the durability promise stays local while
// dedup and singleflight concentrate at the owner.
func (s *Server) Submit(req JobRequest) (job *Job, coalesced bool, err error) {
	return s.submit(req, false)
}

// submit is Submit plus the mesh provenance bit: via is true when the
// request was forwarded by a peer, which pins execution here (no
// re-forwarding, even if membership views disagree mid-transition).
func (s *Server) submit(req JobRequest, via bool) (job *Job, coalesced bool, err error) {
	spec, err := resolveThrough(req, s.tcache)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	s.m.jobsAccepted.Inc()

	if val, ok := s.cache.Get(spec.key); ok {
		s.m.cacheHits.Inc()
		s.refileLocked(spec, val)
		j := s.finishedJobLocked(spec, val)
		s.mu.Unlock()
		return j, false, nil
	}
	s.m.cacheMisses.Inc()

	if running, ok := s.inflight[spec.key]; ok {
		s.m.jobsCoalesced.Inc()
		s.mu.Unlock()
		return running, true, nil
	}

	// Read-through: a result computed before the last restart lives in
	// the persistent store even though the in-memory cache lost it.
	if val, ok := s.storeGetLocked(spec); ok {
		j := s.finishedJobLocked(spec, val)
		s.mu.Unlock()
		return j, false, nil
	}

	// Everything past here is write work. Degrade to read-only while a
	// breaker is open: reads above keep flowing, new executions do not.
	if (s.journal != nil && s.storeBreaker.Blocked()) || s.execBreaker.Blocked() {
		s.rm.degradedResponses.Inc()
		s.mu.Unlock()
		return nil, false, ErrDegraded
	}

	// The intent (the request as JSON, which base64-encodes a binary
	// upload) is marshalled only on the paths that write it: a hit never
	// pays for it.
	if s.journal == nil {
		if owner, fwd := s.forwardTarget(spec.key, via); fwd {
			intent, err := json.Marshal(req)
			if err != nil {
				s.mu.Unlock()
				return nil, false, err
			}
			j := s.forwardLocked(spec, false, owner, intent)
			s.mu.Unlock()
			return j, false, nil
		}
		j, err := s.admitLocked(spec, false)
		s.mu.Unlock()
		return j, false, err
	}
	s.mu.Unlock()

	intent, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	// Journal the intent before acknowledging — the fsync inside is what
	// turns the 202 into a durability promise — but OUTSIDE the server
	// mutex: a slow or hung disk stalls this one submission, not every
	// status poll, cache hit and health snapshot queued behind the lock.
	if jerr := s.journal.Intent(spec.key, intent); jerr != nil {
		s.rm.degradedResponses.Inc()
		return nil, false, fmt.Errorf("%w: %v", ErrDegraded, jerr)
	}

	s.mu.Lock()
	if s.closed {
		// Shutdown began while the intent fsynced. The durable intent is
		// deliberately left pending: the next startup replays it, and
		// since this client never got its ack, the replayed run is at
		// worst one harmless execution.
		s.mu.Unlock()
		return nil, false, ErrShuttingDown
	}
	// The world may have changed while the lock was released: an
	// identical submission may have finished (cache), be running
	// (singleflight) or have landed in the store. Re-check before
	// enqueueing so a key still never executes twice without cause.
	if val, ok := s.cache.Get(spec.key); ok {
		s.refileLocked(spec, val)
		j := s.finishedJobLocked(spec, val)
		_, durable := s.store.GetMeta(spec.key)
		s.mu.Unlock()
		s.settleRecheckIntent(spec.key, durable)
		return j, false, nil
	}
	if running, ok := s.inflight[spec.key]; ok {
		s.m.jobsCoalesced.Inc()
		_, durable := s.store.GetMeta(spec.key)
		s.mu.Unlock()
		s.settleRecheckIntent(spec.key, durable)
		return running, true, nil
	}
	if val, ok := s.storeGetLocked(spec); ok {
		j := s.finishedJobLocked(spec, val)
		s.mu.Unlock()
		s.settleRecheckIntent(spec.key, true)
		return j, false, nil
	}
	if owner, fwd := s.forwardTarget(spec.key, via); fwd {
		j := s.forwardLocked(spec, true, owner, intent)
		s.mu.Unlock()
		return j, false, nil
	}
	j, err := s.admitLocked(spec, true)
	s.mu.Unlock()
	if errors.Is(err, ErrQueueFull) {
		// Balance the journaled intent with a fail entry so the rejected
		// submission is not replayed as a ghost job.
		s.journal.Resolve(spec.key, "queue full, never admitted", false)
	}
	return j, false, err
}

// admitLocked registers a fresh job and offers it to the bounded queue;
// callers hold s.mu. A full queue undoes the registration — safe because
// nothing else can have appended to s.order inside this critical section
// — and returns ErrQueueFull.
func (s *Server) admitLocked(spec *jobSpec, journaled bool) (*Job, error) {
	j := s.newJobLocked(spec)
	j.journaled = journaled
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.m.jobsRejected.Inc()
		return nil, ErrQueueFull
	}
	s.inflight[spec.key] = j
	return j, nil
}

// settleRecheckIntent balances the intent journaled by a submission that
// turned into a hit or a coalesce during its fsync window. When the
// result is already durable in the store the intent resolves done;
// otherwise it stays pending on purpose — either the in-flight execution
// it coalesced onto resolves the shared per-key intent when it finishes,
// or (result computed but never persisted) the next startup's replay
// lands it in the store.
func (s *Server) settleRecheckIntent(key string, durable bool) {
	if durable {
		s.journal.Resolve(key, "", true)
	}
}

// finishedJobLocked registers a job born done (cache or store hit);
// callers hold s.mu.
func (s *Server) finishedJobLocked(spec *jobSpec, val []byte) *Job {
	j := s.newJobLocked(spec)
	j.state = StateDone
	j.cacheHit = true
	j.result = val
	j.finished = time.Now()
	close(j.done)
	s.m.jobsCompleted.Inc()
	s.m.jobLatency.Observe(j.finished.Sub(j.submitted).Seconds())
	return j
}

// newJobLocked allocates and registers a job; callers hold s.mu.
func (s *Server) newJobLocked(spec *jobSpec) *Job {
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d-%s", s.seq, spec.key[:8]),
		Key:       spec.key,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j
}

// Job returns the job with the given id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (s *Server) Wait(ctx context.Context, j *Job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the job's result bytes once done.
func (s *Server) Result(j *Job) ([]byte, JobState, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.result, j.state, j.errMsg
}

// View snapshots a job for JSON rendering.
func (s *Server) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.view()
}

// worker consumes the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.rootCtx.Done():
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

// run executes one job under the per-job timeout and publishes the
// outcome.
func (s *Server) run(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()

	s.m.jobsExecuted.Inc()
	s.m.workersBusy.Add(1)
	defer s.m.workersBusy.Add(-1)

	ctx, cancel := context.WithTimeout(s.rootCtx, s.cfg.JobTimeout)
	defer cancel()

	if s.testGate != nil {
		select {
		case <-s.testGate:
		case <-ctx.Done():
		}
	}

	// In cluster mode, check alive peers for an already-stored copy
	// before computing: a key re-owned after a membership change may
	// already be durable on a node outside the current replica set, and
	// recomputing it would break exactly-once.
	var (
		result  []byte
		diags   *core.Diagnostics
		err     error
		fetched bool
	)
	if s.mesh != nil {
		if payload, ok := s.fetchFromCluster(ctx, j.Key); ok {
			result, fetched = payload, true
		}
	}
	if !fetched {
		if s.testExecHook != nil {
			s.testExecHook(j.Key)
		}
		result, diags, err = s.execute(ctx, j.spec)
	}

	// Classify the outcome once; the journal resolution, the breaker
	// verdict and the published state must all agree.
	shutdownCancel := err != nil && s.rootCtx.Err() != nil && ctx.Err() == context.Canceled
	var errMsg string
	switch {
	case err == nil:
	case shutdownCancel:
		errMsg = "daemon shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		errMsg = fmt.Sprintf("job timeout after %s", s.cfg.JobTimeout)
	default:
		errMsg = err.Error()
	}

	// Persist and resolve the journal OUTSIDE the server mutex: persist
	// sleeps between retries and the journal fsyncs; neither may stall
	// submissions or the other workers.
	var persistErr error
	if err == nil {
		if !fetched {
			s.execBreaker.Success()
		}
		if s.store != nil {
			persistErr = s.persist(j.spec, result)
			if s.testPersistHook != nil {
				s.testPersistHook(j.Key, persistErr)
			}
			if persistErr == nil {
				// Replicate the durable result to its ring successors;
				// failed pushes become journaled hand-off debt.
				s.replicate(j.spec, result)
			}
		}
	} else if !shutdownCancel {
		s.execBreaker.Failure()
	}
	switch {
	case err == nil && persistErr == nil:
		s.resolveJournal(j, "", true)
	case err == nil:
		// Computed but not persisted after the retry budget: the client
		// is served from memory, the intent stays pending, and the next
		// startup replays it into the store.
	case shutdownCancel:
		// Interrupted, not finished: leave the intent pending so the
		// next startup resumes the job.
	default:
		s.resolveJournal(j, errMsg, false)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = time.Now()
	delete(s.inflight, j.Key)
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		j.diagnostics = diags
		s.cache.Put(j.Key, result)
		s.m.jobsCompleted.Inc()
		s.noteDiagnosticsLocked(diags)
	case shutdownCancel:
		j.state = StateCanceled
		j.errMsg = errMsg
		s.m.jobsCanceled.Inc()
	default:
		j.state = StateFailed
		j.errMsg = errMsg
		s.m.jobsFailed.Inc()
	}
	s.m.jobLatency.Observe(j.finished.Sub(j.submitted).Seconds())
	close(j.done)
}

// execute runs the pipeline stages, timing each into its histogram.
// Each stage runs under its own timeout budget (Config.StageTimeout)
// inside the job-wide deadline, so one pathological stage cannot eat
// the whole JobTimeout before the failure is attributed.
func (s *Server) execute(ctx context.Context, spec *jobSpec) ([]byte, *core.Diagnostics, error) {
	observe := func(h *Histogram, from time.Time) { h.Observe(time.Since(from).Seconds()) }
	stageCtx := func() (context.Context, context.CancelFunc) {
		if s.cfg.StageTimeout > 0 {
			return context.WithTimeout(ctx, s.cfg.StageTimeout)
		}
		return context.WithCancel(ctx)
	}

	t0 := time.Now()
	var traces []*trace.Trace
	var err error
	if spec.study != nil {
		sctx, cancel := stageCtx()
		traces, err = spec.study.Simulate(sctx)
		cancel()
	} else {
		traces, err = trace.Windows(spec.traces, spec.windows)
	}
	if err != nil {
		return nil, nil, err
	}
	observe(s.m.stagePrepare, t0)

	t1 := time.Now()
	sctx, cancel := stageCtx()
	frames, err := core.BuildFramesContext(sctx, traces, spec.cfg)
	cancel()
	if err != nil {
		return nil, nil, err
	}
	observe(s.m.stageCluster, t1)

	t2 := time.Now()
	sctx, cancel = stageCtx()
	res, err := core.NewTracker(spec.cfg).TrackContext(sctx, frames)
	cancel()
	if err != nil {
		return nil, nil, err
	}
	observe(s.m.stageTrack, t2)
	res.Diagnostics.AddDecode(spec.linesSkipped)

	t3 := time.Now()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, spec.ms); err != nil {
		return nil, nil, err
	}
	observe(s.m.stageExport, t3)

	d := res.Diagnostics
	return buf.Bytes(), &d, nil
}

// noteDiagnosticsLocked folds one job's degraded-mode accounting into the
// health aggregation; callers hold s.mu.
func (s *Server) noteDiagnosticsLocked(d *core.Diagnostics) {
	if d == nil || d.Clean() {
		return
	}
	s.health.jobsWithDiagnostics++
	s.health.burstsQuarantined += d.BurstsQuarantined
	s.health.linesSkipped += d.LinesSkipped
	s.health.framesDegraded += d.FramesDegraded
	s.health.framesBridged += d.FramesBridged
	s.health.lastSummary = d.Summary()
}

// Shutdown stops accepting jobs, cancels queued and running ones, and
// waits for the workers to exit (bounded by ctx). In-flight pipeline
// stages observe the cancellation via their contexts, so workers return
// promptly instead of finishing doomed analyses.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// Cancel running pipelines, then mark every queued job canceled.
	s.cancel()
	for {
		var j *Job
		select {
		case j = <-s.queue:
		default:
		}
		if j == nil {
			break
		}
		s.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateCanceled
			j.errMsg = "daemon shutting down"
			j.finished = time.Now()
			delete(s.inflight, j.Key)
			s.m.jobsCanceled.Inc()
			close(j.done)
		}
		s.mu.Unlock()
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Close the store, then the journal, last: a straggling append after
	// this point fails cleanly (counted, not crashed). Intents of
	// canceled jobs are deliberately NOT resolved — they stay pending on
	// disk and the next startup replays them.
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.mesh != nil {
		s.mesh.Stop()
	}
	if s.meshJournal != nil {
		if cerr := s.meshJournal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cerr := s.closeStreams(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ---- HTTP layer ----

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/studies", s.handleStudies)
	mux.HandleFunc("GET /v1/results", s.handleResults)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResultPayload)
	mux.HandleFunc("GET /v1/series", s.handleSeriesList)
	mux.HandleFunc("GET /v1/series/{name}/trajectories", s.handleTrajectories)
	mux.HandleFunc("GET /v1/series/{name}/regressions", s.handleRegressions)
	mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	mux.HandleFunc("GET /v1/streams", s.handleStreams)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStream)
	mux.HandleFunc("POST /v1/streams/{id}/bursts", s.handleStreamAppend)
	mux.HandleFunc("POST /v1/streams/{id}/finish", s.handleStreamFinish)
	mux.HandleFunc("GET /v1/streams/{id}/events", s.handleStreamEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/mesh/ping", s.handleMeshPing)
	mux.HandleFunc("POST /v1/mesh/replicate", s.handleMeshReplicate)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: "+err.Error())
		return
	}
	var req JobRequest
	if trace.IsColbin(data) {
		// Raw binary submission: the body is one or more concatenated
		// colbin traces; job options ride in the query string.
		req, err = binaryJobRequest(data, r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.m.jobsBinary.Inc()
	} else if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	via := viaMesh(r)
	if via && s.mesh != nil {
		s.mm.receivedJobs.Inc()
	}
	j, coalesced, err := s.submit(req, via)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "job queue is full, retry later")
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	v := s.View(j)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	switch {
	case v.CacheHit:
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, v)
	case coalesced:
		w.Header().Set("X-Cache", "coalesced")
		writeJSON(w, http.StatusAccepted, v)
	default:
		w.Header().Set("X-Cache", "miss")
		writeJSON(w, http.StatusAccepted, v)
	}
}

// binaryJobRequest unpacks a raw colbin POST body — one or more
// concatenated binary columnar traces — into the JobRequest the rest of
// the pipeline (journal intents, mesh forwarding, resolve) already
// understands. Job options that normally live in the JSON body ride in
// the query string: windows, metrics (comma-separated), lenient, series,
// runLabel, and config (a JSON-encoded ConfigSpec).
func binaryJobRequest(data []byte, r *http.Request) (JobRequest, error) {
	var req JobRequest
	parts, err := trace.SplitColbin(data)
	if err != nil {
		return req, fmt.Errorf("decoding binary traces: %w", err)
	}
	req.TracesBin = parts
	q := r.URL.Query()
	if v := q.Get("windows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("windows %q is not a number", v)
		}
		req.Windows = n
	}
	if v := q.Get("metrics"); v != "" {
		req.Metrics = strings.Split(v, ",")
	}
	req.Lenient = q.Get("lenient") == "true" || q.Get("lenient") == "1"
	req.Series = q.Get("series")
	req.RunLabel = q.Get("runLabel")
	if v := q.Get("config"); v != "" {
		var cs ConfigSpec
		if err := json.Unmarshal([]byte(v), &cs); err != nil {
			return req, fmt.Errorf("config query parameter: %w", err)
		}
		req.Config = &cs
	}
	return req, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	sortViews(views)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.View(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	// ?wait=DURATION long-polls: respond as soon as the job is terminal
	// or the window elapses. Forwarding peers use this instead of a poll
	// storm.
	if ws := r.URL.Query().Get("wait"); ws != "" {
		if d, err := time.ParseDuration(ws); err == nil && d > 0 {
			if d > time.Minute {
				d = time.Minute
			}
			wctx, cancel := context.WithTimeout(r.Context(), d)
			s.Wait(wctx, j)
			cancel()
		}
	}
	result, state, errMsg := s.Result(j)
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		if j.cacheHit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		// X-Durable tells a forwarding peer whether this result is in the
		// persistent store — the signal that lets it resolve its own
		// journal intent.
		if s.store != nil {
			if _, ok := s.store.GetMeta(j.Key); ok {
				w.Header().Set("X-Durable", "true")
			}
		}
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, errMsg)
	case StateCanceled:
		writeError(w, http.StatusGone, errMsg)
	default:
		// Not finished yet: 202 tells pollers to come back.
		writeJSON(w, http.StatusAccepted, s.View(j))
	}
}

func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	type studyView struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Frames      int    `json:"frames"`
		Param       string `json:"param"`
	}
	var out []studyView
	for _, st := range apps.All() {
		frames := len(st.Runs)
		if st.Windows > 1 {
			frames = st.Windows
		}
		out = append(out, studyView{Name: st.Name, Description: st.Description, Frames: frames, Param: st.ParamName})
	}
	syn, err := apps.ByName("Synthetic")
	if err == nil {
		out = append(out, studyView{Name: syn.Name, Description: syn.Description, Frames: len(syn.Runs), Param: syn.ParamName})
	}
	writeJSON(w, http.StatusOK, map[string]any{"studies": out})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// Health is the /healthz document.
type Health struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	WorkersBusy   int64  `json:"workersBusy"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	CacheEntries  int    `json:"cacheEntries"`
	CacheBytes    int64  `json:"cacheBytes"`
	Jobs          struct {
		Accepted  uint64 `json:"accepted"`
		Executed  uint64 `json:"executed"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Canceled  uint64 `json:"canceled"`
		Rejected  uint64 `json:"rejected"`
	} `json:"jobs"`
	DegradedMode struct {
		JobsWithDiagnostics int    `json:"jobsWithDiagnostics"`
		BurstsQuarantined   int    `json:"burstsQuarantined"`
		LinesSkipped        int    `json:"linesSkipped"`
		FramesDegraded      int    `json:"framesDegraded"`
		FramesBridged       int    `json:"framesBridged"`
		LastSummary         string `json:"lastSummary,omitempty"`
	} `json:"degradedMode"`
	Store struct {
		Enabled    bool   `json:"enabled"`
		Records    int    `json:"records"`
		Segments   int    `json:"segments"`
		Bytes      int64  `json:"bytes"`
		Superseded uint64 `json:"superseded"`
	} `json:"store"`
	Journal struct {
		Enabled bool   `json:"enabled"`
		Pending int    `json:"pending"`
		Bytes   int64  `json:"bytes"`
		Appends uint64 `json:"appends"`
	} `json:"journal"`
	Breakers struct {
		StoreOpen bool `json:"storeOpen"`
		ExecOpen  bool `json:"execOpen"`
	} `json:"breakers"`
	Streams struct {
		Sessions      int            `json:"sessions"`
		Created       uint64         `json:"created"`
		Resumed       uint64         `json:"resumed"`
		Bursts        uint64         `json:"bursts"`
		WindowCloses  uint64         `json:"windowCloses"`
		Backpressure  uint64         `json:"backpressure"`
		PersistErrors uint64         `json:"persistErrors"`
		Subscribers   int            `json:"subscribers"`
		JournalLive   int            `json:"journalLive"`
		PerStream     []StreamHealth `json:"perStream,omitempty"`
	} `json:"streams"`
	Mesh struct {
		Enabled bool   `json:"enabled"`
		NodeID  string `json:"nodeId,omitempty"`
		Epoch   uint64 `json:"epoch,omitempty"`
		// Replicas is the configured copies per record (owner included);
		// Peers the per-peer liveness view; RingShares each live node's
		// exact fraction of the hash space; ReplicationPending the
		// journaled hand-off debts not yet delivered (replication lag).
		Replicas           int                `json:"replicas,omitempty"`
		Peers              []mesh.PeerStatus  `json:"peers,omitempty"`
		RingShares         map[string]float64 `json:"ringShares,omitempty"`
		ReplicationPending int                `json:"replicationPending,omitempty"`
	} `json:"mesh"`
}

// Healthz snapshots the daemon state for /healthz.
func (s *Server) Healthz() Health {
	var h Health
	s.mu.Lock()
	closed := s.closed
	acc := s.health
	s.mu.Unlock()

	h.Status = "ok"
	if closed {
		h.Status = "shutting-down"
	} else if acc.jobsWithDiagnostics > 0 {
		// Results are still served, but some came from the degraded-mode
		// pipeline: coarsened, not wrong. Surface it.
		h.Status = "degraded"
	}
	h.Workers = s.cfg.Workers
	h.WorkersBusy = s.m.workersBusy.Value()
	h.QueueDepth = len(s.queue)
	h.QueueCapacity = s.cfg.QueueDepth
	h.CacheEntries = s.cache.Len()
	h.CacheBytes = s.cache.Bytes()
	h.Jobs.Accepted = s.m.jobsAccepted.Value()
	h.Jobs.Executed = s.m.jobsExecuted.Value()
	h.Jobs.Completed = s.m.jobsCompleted.Value()
	h.Jobs.Failed = s.m.jobsFailed.Value()
	h.Jobs.Canceled = s.m.jobsCanceled.Value()
	h.Jobs.Rejected = s.m.jobsRejected.Value()
	h.DegradedMode.JobsWithDiagnostics = acc.jobsWithDiagnostics
	h.DegradedMode.BurstsQuarantined = acc.burstsQuarantined
	h.DegradedMode.LinesSkipped = acc.linesSkipped
	h.DegradedMode.FramesDegraded = acc.framesDegraded
	h.DegradedMode.FramesBridged = acc.framesBridged
	h.DegradedMode.LastSummary = acc.lastSummary
	if s.store != nil {
		st := s.store.Stats()
		h.Store.Enabled = true
		h.Store.Records = st.Records
		h.Store.Segments = st.Segments
		h.Store.Bytes = st.Bytes
		h.Store.Superseded = st.Superseded
	}
	if s.journal != nil {
		jst := s.journal.Stats()
		h.Journal.Enabled = true
		h.Journal.Pending = jst.Pending
		h.Journal.Bytes = jst.Bytes
		h.Journal.Appends = jst.Appends
	}
	h.Breakers.StoreOpen = s.storeBreaker.Open()
	h.Breakers.ExecOpen = s.execBreaker.Open()
	h.Streams.PerStream = s.streamHealth()
	h.Streams.Sessions = len(h.Streams.PerStream)
	h.Streams.Created = s.stm.created.Value()
	h.Streams.Resumed = s.stm.resumed.Value()
	h.Streams.Bursts = s.stm.bursts.Value()
	h.Streams.WindowCloses = s.stm.windowCloses.Value()
	h.Streams.Backpressure = s.stm.backpressure.Value()
	h.Streams.PersistErrors = s.stm.persistErrors.Value()
	for _, sh := range h.Streams.PerStream {
		h.Streams.Subscribers += sh.Subscribers
	}
	if s.streamJournal != nil {
		h.Streams.JournalLive = s.streamJournal.Stats().Pending
	}
	if s.mesh != nil {
		h.Mesh.Enabled = true
		h.Mesh.NodeID = s.mesh.Self()
		h.Mesh.Epoch = s.mesh.Epoch()
		h.Mesh.Replicas = s.mesh.Replicas()
		h.Mesh.Peers = s.mesh.Statuses()
		h.Mesh.RingShares = s.mesh.Ring().Shares()
		if s.meshJournal != nil {
			h.Mesh.ReplicationPending = s.meshJournal.Stats().Pending
		}
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Healthz())
}

// Readiness is the /readyz document. Liveness (/healthz) answers "is
// the process up"; readiness answers "should traffic be routed here":
// not while journal replay is still resuming acknowledged work, and not
// while a breaker has degraded the service to read-only.
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Readyz reports whether the daemon is ready for new write traffic.
func (s *Server) Readyz() Readiness {
	var r Readiness
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		r.Reasons = append(r.Reasons, "shutting down")
	}
	select {
	case <-s.replayDone:
	default:
		r.Reasons = append(r.Reasons, "journal replay in progress")
	}
	if s.storeBreaker.Open() {
		r.Reasons = append(r.Reasons, "store circuit breaker open")
	}
	if s.execBreaker.Open() {
		r.Reasons = append(r.Reasons, "execution circuit breaker open")
	}
	r.Ready = len(r.Reasons) == 0
	return r
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.Readyz()
	status := http.StatusOK
	if !ready.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ready)
}
