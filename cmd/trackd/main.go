// Command trackd is the tracking daemon: it serves the perftrack pipeline
// over HTTP with a bounded job queue, a worker pool, a content-addressed
// result cache, and Prometheus-text metrics.
//
// Usage:
//
//	trackd [-addr HOST:PORT] [-workers N] [-queue N] [-timeout D]
//	       [-stage-timeout D] [-cache-entries N] [-cache-bytes N]
//	       [-store DIR] [-store-segment-bytes N] [-store-sync-every N]
//	       [-store-retries N] [-no-journal] [-journal-sync-every N]
//	       [-trace-cache DIR] [-trace-cache-bytes N] [-no-trace-cache]
//	       [-breaker-threshold N] [-breaker-cooldown D]
//	       [-stream-sessions N] [-stream-pending N] [-stream-events N]
//	       [-node-id ID -peers ID=URL,...] [-replicas N] [-probe-interval D]
//	       [-pprof-addr HOST:PORT]
//
// -pprof-addr mounts net/http/pprof on a dedicated listener (separate
// from the service address, so profiling is never exposed to clients);
// point `go tool pprof` at http://HOST:PORT/debug/pprof/profile or
// /debug/pprof/heap to profile a live daemon.
//
// With -store, every completed analysis is also appended to the perfdb
// persistent store in DIR: results survive daemon restarts (cache misses
// read through the store), and the /v1/results and /v1/series endpoints
// expose the stored history, trajectory chaining, and regression
// detection. A store also enables the job journal (disable with
// -no-journal): every submission is fsynced as an intent before its 202,
// so acknowledged jobs survive crashes and are replayed on the next
// startup — /readyz answers 503 until the replay backlog is done.
// Failed store appends retry with jittered backoff (-store-retries);
// sustained failures trip a circuit breaker (-breaker-threshold,
// -breaker-cooldown) that degrades the daemon to read-only 503s instead
// of losing work.
//
// Trace ingestion accepts both the perftrack text format and the binary
// columnar (colbin) format — POST bodies are sniffed by magic on
// /v1/jobs and stream appends. With -store (or an explicit -trace-cache
// DIR), text uploads are converted to colbin on first read and cached
// content-addressed beside the perfdb segments, so repeat submissions
// of the same text skip the text parse entirely (-trace-cache-bytes
// bounds the cache; -no-trace-cache disables it).
//
// The daemon also hosts live streams (POST /v1/streams): resident
// sessions that ingest burst chunks as a run executes, seal fixed- or
// count-based windows incrementally, and fan rolling deltas out to
// SSE/long-poll subscribers on /v1/streams/{id}/events. With -store,
// every sealed window is persisted before its append is acknowledged
// and live streams resume from their sealed windows after a crash
// (only the open window is lost). -stream-sessions caps resident
// sessions, -stream-pending bounds the append chunks racing for one
// session before 429 backpressure, and -stream-events sizes the
// per-stream event replay ring.
//
// With -node-id and -peers (which requires -store), trackd joins a
// sharded cluster: jobs route by consistent hashing over their content
// fingerprint to an owner node, completed results replicate to
// -replicas ring successors, any node answers reads for the whole
// cluster via scatter-gather, and a background probe loop
// (-probe-interval) tracks peer liveness, rebalancing replicas on every
// membership change. The -peers list is the full static membership,
// including this node's own id and URL.
//
// The daemon prints "trackd: listening on ADDR" once the socket is bound
// (with the resolved port when :0 was requested), and shuts down
// gracefully on SIGINT/SIGTERM: in-flight jobs are canceled through their
// contexts, queued jobs are marked canceled, and the HTTP server drains.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // pprof handlers for the -pprof-addr listener
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"perftrack/internal/mesh"
	"perftrack/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7077", "listen address (use :0 for an ephemeral port)")
		workers       = flag.Int("workers", defaultWorkers(), "worker pool size")
		queueDepth    = flag.Int("queue", 64, "job queue depth (full queue replies 429)")
		timeout       = flag.Duration("timeout", 2*time.Minute, "per-job execution timeout")
		stageTimeout  = flag.Duration("stage-timeout", 0, "per-pipeline-stage timeout inside the job timeout (0 disables)")
		cacheEntries  = flag.Int("cache-entries", 256, "result cache entry bound")
		cacheBytes    = flag.Int64("cache-bytes", 256<<20, "result cache byte bound")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		storeDir      = flag.String("store", "", "perfdb directory; empty disables the persistent result store")
		storeSegment  = flag.Int64("store-segment-bytes", 0, "perfdb segment size bound (0 = default 64 MiB)")
		storeSync     = flag.Int("store-sync-every", 0, "perfdb fsync batch size (0 = default 8, 1 = every append)")
		storeRetries  = flag.Int("store-retries", 0, "retries for a failed store append (0 = default 3)")
		noJournal     = flag.Bool("no-journal", false, "disable the crash-durable job journal even with -store")
		traceCache    = flag.String("trace-cache", "", "trace conversion cache directory (default <store>/tracecache; requires -store or an explicit dir)")
		traceCacheMax = flag.Int64("trace-cache-bytes", 0, "trace conversion cache byte bound (0 = default 256 MiB)")
		noTraceCache  = flag.Bool("no-trace-cache", false, "disable the convert-on-first-read trace cache")
		journalSync   = flag.Int("journal-sync-every", 0, "journal resolution fsync batch size (0 = default 8; intents always fsync)")
		brkThreshold  = flag.Int("breaker-threshold", 0, "consecutive failures that open a circuit breaker (0 = default 5)")
		brkCooldown   = flag.Duration("breaker-cooldown", 0, "cooldown before an open breaker admits a probe (0 = default 5s)")
		streamMax     = flag.Int("stream-sessions", 0, "resident live-stream session cap (0 = default 64)")
		streamPend    = flag.Int("stream-pending", 0, "append chunks racing per stream before 429 backpressure (0 = default 4)")
		streamEvents  = flag.Int("stream-events", 0, "per-stream event replay ring size (0 = default 256)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback-only)")
		nodeID        = flag.String("node-id", "", "this node's id in a sharded cluster (requires -peers and -store)")
		peersFlag     = flag.String("peers", "", "full cluster membership as comma-separated id=URL pairs, including this node")
		replicas      = flag.Int("replicas", 0, "nodes holding each result record, owner included (0 = default 2)")
		probeEvery    = flag.Duration("probe-interval", 0, "peer liveness probe period (0 = default 2s)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "trackd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	var meshCfg mesh.Config
	if (*nodeID == "") != (*peersFlag == "") {
		log.Fatal("trackd: -node-id and -peers must be set together")
	}
	if *nodeID != "" {
		peers, err := mesh.ParsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("trackd: -peers: %v", err)
		}
		meshCfg = mesh.Config{
			NodeID:        *nodeID,
			Peers:         peers,
			Replicas:      *replicas,
			ProbeInterval: *probeEvery,
		}
	}

	srv, err := service.New(service.Config{
		Workers:              *workers,
		QueueDepth:           *queueDepth,
		JobTimeout:           *timeout,
		StageTimeout:         *stageTimeout,
		CacheMaxEntries:      *cacheEntries,
		CacheMaxBytes:        *cacheBytes,
		RetryAfter:           *retryAfter,
		StoreDir:             *storeDir,
		StoreMaxSegmentBytes: *storeSegment,
		StoreSyncEvery:       *storeSync,
		StoreRetries:         *storeRetries,
		JournalDisabled:      *noJournal,
		JournalSyncEvery:     *journalSync,
		TraceCacheDir:        *traceCache,
		TraceCacheMaxBytes:   *traceCacheMax,
		TraceCacheDisabled:   *noTraceCache,
		BreakerThreshold:     *brkThreshold,
		BreakerCooldown:      *brkCooldown,
		StreamMaxSessions:    *streamMax,
		StreamMaxPending:     *streamPend,
		StreamEventBuffer:    *streamEvents,
		Mesh:                 meshCfg,
	})
	if err != nil {
		log.Fatalf("trackd: %v", err)
	}
	if n := srv.Mesh(); n != nil {
		// Rebalance in the background at startup (resuming any journal-
		// scoped round a crash interrupted) and after every membership
		// change; Rebalance itself serialises concurrent rounds.
		rebalance := func() {
			go func() {
				if _, err := srv.Rebalance(context.Background()); err != nil {
					log.Printf("trackd: rebalance: %v", err)
				}
			}()
		}
		n.Start(rebalance)
		rebalance()
		log.Printf("trackd: cluster node %s of %d peers (replicas %d)", n.Self(), len(n.Statuses())+1, n.Replicas())
	}
	if *storeDir != "" {
		st := srv.Store().Stats()
		log.Printf("trackd: perfdb open at %s: %d records, %d segments, %d bytes", *storeDir, st.Records, st.Segments, st.Bytes)
		if jn := srv.Journal(); jn != nil {
			if jst := jn.Stats(); jst.Pending > 0 {
				log.Printf("trackd: journal replaying %d pending jobs (readyz answers 503 until done)", jst.Pending)
			}
		}
		if h := srv.Healthz(); h.Streams.Resumed > 0 {
			log.Printf("trackd: resumed %d live streams from their sealed windows", h.Streams.Resumed)
		}
	}

	// The profiling endpoint lives on its OWN listener, never the service
	// one: pprof exposes heap contents and must not ride along on an
	// address that might be reachable by clients.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("trackd: pprof listen %s: %v", *pprofAddr, err)
		}
		log.Printf("trackd: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			// http.DefaultServeMux carries the net/http/pprof handlers
			// registered by the blank import.
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("trackd: pprof serve: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("trackd: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// Handle signals before /readyz can answer: a SIGTERM sent as soon as
	// the daemon is ready must shut it down, not kill it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	// The smoke harness and scripts parse this line to find the port.
	fmt.Printf("trackd: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigc:
		log.Printf("trackd: %s, shutting down", sig)
	case err := <-errc:
		log.Fatalf("trackd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("trackd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("trackd: worker shutdown: %v", err)
	}
}

// defaultWorkers sizes the pool to the machine, capped where extra
// workers only add queueing inside the pipeline's own parallel stages.
func defaultWorkers() int {
	n := runtime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}
