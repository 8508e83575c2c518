package service

// Cluster wiring: composes internal/mesh into the daemon. With clustering
// enabled (Config.Mesh.NodeID set), jobs route by consistent hashing over
// their content fingerprint: a node that does not own a submitted key
// journals the intent locally (the 202 durability promise stays local),
// registers a normal Job, and forwards the request to the owner instead
// of its own queue — exact dedup and singleflight then happen exactly
// once, at the owner. Completed results replicate to R ring successors
// using the store's CRC-framed record encoding; failed pushes become
// journaled hand-off debts that Rebalance retries, and Rebalance itself
// is journal-scoped so a crash mid-rebalance resumes on the next run.
// Read endpoints scatter-gather across alive peers, so any node answers
// for the whole cluster.
//
// Invariant contract, cluster edition:
//   - No acked result lost: an intent is fsynced on the receiving node
//     before its 202, regardless of ownership; it resolves done only
//     when the result is durable somewhere (the owner's X-Durable result
//     header, or a holder found by cluster lookup). Crash replay
//     re-routes through the mesh.
//   - No fingerprint computed twice: duplicate submits on any node
//     converge on the owner's singleflight table; before executing, a
//     cluster node also checks alive peers for an already-stored copy
//     (covers re-owned keys after a membership change).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"time"

	"perftrack/internal/mesh"
	"perftrack/internal/store"
	"perftrack/internal/trajectory"
)

type meshMetrics struct {
	forwards            *Counter
	forwardFailures     *Counter
	forwardFallbacks    *Counter
	receivedJobs        *Counter
	remoteHits          *Counter
	replicationPushes   *Counter
	replicationReceived *Counter
	replicationFailures *Counter
	handoffs            *Counter
	rebalances          *Counter
	scatters            *Counter
}

// openMesh builds the mesh node and the hand-off journal and registers
// the cluster metrics. Called from New when Config.Mesh.NodeID is set.
func (s *Server) openMesh() error {
	n, err := mesh.New(s.cfg.Mesh)
	if err != nil {
		return err
	}
	mj, err := store.OpenJournal(filepath.Join(s.cfg.StoreDir, "mesh"), store.JournalOptions{
		SyncEvery:    s.cfg.JournalSyncEvery,
		CompactEvery: s.cfg.JournalCompactEvery,
		FS:           s.cfg.StoreFS,
	})
	if err != nil {
		return err
	}
	s.mesh, s.meshJournal = n, mj

	r := s.reg
	s.mm = meshMetrics{
		forwards:            r.NewCounter("trackd_mesh_forwards_total", "Jobs forwarded to their ring owner on another node."),
		forwardFailures:     r.NewCounter("trackd_mesh_forward_failures_total", "Transport failures while forwarding a job to its owner."),
		forwardFallbacks:    r.NewCounter("trackd_mesh_forward_fallbacks_total", "Forwarded jobs executed locally because no owner was reachable."),
		receivedJobs:        r.NewCounter("trackd_mesh_received_jobs_total", "Job submissions received from peer nodes via the mesh."),
		remoteHits:          r.NewCounter("trackd_mesh_remote_hits_total", "Executions avoided because an alive peer already held the stored result."),
		replicationPushes:   r.NewCounter("trackd_mesh_replication_pushes_total", "Result records pushed to replica peers after completion."),
		replicationReceived: r.NewCounter("trackd_mesh_replication_received_total", "Replicated records applied from peer pushes."),
		replicationFailures: r.NewCounter("trackd_mesh_replication_failures_total", "Failed replication pushes (journaled as hand-off debt)."),
		handoffs:            r.NewCounter("trackd_mesh_rebalance_handoffs_total", "Records handed off to their current replica set by Rebalance."),
		rebalances:          r.NewCounter("trackd_mesh_rebalances_total", "Rebalance rounds run."),
		scatters:            r.NewCounter("trackd_mesh_scatter_requests_total", "Read requests answered by scatter-gathering alive peers."),
	}
	r.NewGaugeFunc("trackd_mesh_epoch", "Ring generation; bumps on every membership change.", func() int64 { return int64(n.Epoch()) })
	r.NewGaugeFunc("trackd_mesh_peers_alive", "Remote peers currently considered alive.", func() int64 { return int64(len(n.AlivePeers())) })
	r.NewGaugeFunc("trackd_mesh_replication_pending", "Journaled hand-off debts awaiting delivery (replication lag).", func() int64 { return int64(mj.Stats().Pending) })
	return nil
}

// Mesh exposes the cluster node (nil when clustering is disabled).
func (s *Server) Mesh() *mesh.Node { return s.mesh }

func viaMesh(r *http.Request) bool { return r.Header.Get("X-Mesh-From") != "" }

// forwardTarget decides whether a key must be forwarded: clustering on,
// the submission arrived from a client (not a peer — peer submissions
// are handled locally even if membership views disagree, which breaks
// forwarding loops), and the ring owner is another node.
func (s *Server) forwardTarget(key string, via bool) (string, bool) {
	if s.mesh == nil || via {
		return "", false
	}
	owner := s.mesh.Owner(key)
	if owner == "" || owner == s.mesh.Self() {
		return "", false
	}
	return owner, true
}

// forwardLocked registers a job that will be satisfied by its owner node
// and launches the forwarding goroutine; callers hold s.mu. The job
// lives in the local jobs/inflight tables like any other, so duplicate
// local submissions coalesce onto it and clients poll it by its local id.
func (s *Server) forwardLocked(spec *jobSpec, journaled bool, owner string, reqBody []byte) *Job {
	j := s.newJobLocked(spec)
	j.journaled = journaled
	j.remote = true
	j.owner = owner
	s.inflight[spec.key] = j
	s.mm.forwards.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runRemote(j, reqBody)
	}()
	return j
}

const (
	forwardDone        = iota // terminal success: result bytes in hand
	forwardFailed             // the owner reached a definitive job failure
	forwardBusy               // owner alive but refusing work (429/503)
	forwardUnreachable        // transport-level failure talking to the owner
)

type forwardOutcome struct {
	kind    int
	result  []byte
	errMsg  string
	durable bool
}

// runRemote drives one forwarded job to a terminal state: submit to the
// owner, long-poll its result, and on owner death re-route via the
// updated ring, fall back to any holder in the cluster, and only then
// compute locally (blocking enqueue — the job is already acked).
func (s *Server) runRemote(j *Job, reqBody []byte) {
	ctx, cancel := context.WithTimeout(s.rootCtx, s.cfg.JobTimeout)
	defer cancel()

	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts && ctx.Err() == nil; attempt++ {
		owner := s.mesh.Owner(j.Key)
		if owner == "" || owner == s.mesh.Self() {
			break // membership shifted ownership home: run locally
		}
		out := s.forwardOnce(ctx, owner, reqBody)
		switch out.kind {
		case forwardDone:
			s.mesh.ReportSuccess(owner)
			s.publishRemote(j, out.result, "", out.durable)
			return
		case forwardFailed:
			s.mesh.ReportSuccess(owner)
			s.publishRemote(j, nil, out.errMsg, false)
			return
		case forwardBusy:
			s.mesh.ReportSuccess(owner)
			select {
			case <-time.After(backoffDelay(attempt+1, s.cfg.RetryBase, s.cfg.RetryMax)):
			case <-ctx.Done():
			}
		case forwardUnreachable:
			s.mm.forwardFailures.Inc()
			if ctx.Err() == nil {
				// Peer-death evidence only when it was not our own
				// deadline that killed the request.
				s.mesh.ReportFailure(owner)
			}
		}
	}
	if s.rootCtx.Err() != nil {
		s.publishRemoteCanceled(j)
		return
	}
	// No reachable owner. The result may still exist in the cluster (the
	// owner persisted before dying, or a replica holds it): serve that
	// before recomputing.
	if payload, ok := s.fetchFromCluster(ctx, j.Key); ok {
		s.publishRemote(j, payload, "", true)
		return
	}
	s.mm.forwardFallbacks.Inc()
	select {
	case s.queue <- j:
		// A worker takes over: run() publishes the outcome.
	case <-s.rootCtx.Done():
		s.publishRemoteCanceled(j)
	}
}

// forwardOnce submits the job to owner and long-polls the result.
func (s *Server) forwardOnce(ctx context.Context, owner string, reqBody []byte) forwardOutcome {
	status, _, body, err := s.mesh.DoH(ctx, owner, http.MethodPost, "/v1/jobs", reqBody)
	if err != nil {
		return forwardOutcome{kind: forwardUnreachable}
	}
	switch {
	case status == http.StatusOK || status == http.StatusAccepted:
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return forwardOutcome{kind: forwardBusy}
	default:
		return forwardOutcome{kind: forwardFailed, errMsg: apiError(status, body)}
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
		return forwardOutcome{kind: forwardFailed, errMsg: "owner returned undecodable job view"}
	}
	path := "/v1/jobs/" + view.ID + "/result?wait=30s"
	for ctx.Err() == nil {
		status, hdr, body, err := s.mesh.DoH(ctx, owner, http.MethodGet, path, nil)
		if err != nil {
			return forwardOutcome{kind: forwardUnreachable}
		}
		switch status {
		case http.StatusOK:
			return forwardOutcome{kind: forwardDone, result: body, durable: hdr.Get("X-Durable") == "true"}
		case http.StatusAccepted:
			// Long poll elapsed without a terminal state; poll again.
		case http.StatusGone:
			// Owner shutting down mid-job: fail over like a dead peer.
			return forwardOutcome{kind: forwardUnreachable}
		default:
			return forwardOutcome{kind: forwardFailed, errMsg: apiError(status, body)}
		}
	}
	return forwardOutcome{kind: forwardUnreachable}
}

func apiError(status int, body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("owner returned status %d", status)
}

// publishRemote lands a forwarded job's terminal state. The local
// journal intent resolves done only when the result is durable somewhere
// in the cluster; a computed-but-nowhere-durable result leaves the
// intent pending for the next startup's replay, exactly like the
// single-node computed-but-not-persisted case.
func (s *Server) publishRemote(j *Job, result []byte, errMsg string, durable bool) {
	switch {
	case errMsg == "" && durable:
		s.resolveJournal(j, "", true)
	case errMsg != "":
		s.resolveJournal(j, errMsg, false)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = time.Now()
	delete(s.inflight, j.Key)
	if errMsg == "" {
		j.state = StateDone
		j.result = result
		s.cache.Put(j.Key, result)
		s.m.jobsCompleted.Inc()
	} else {
		j.state = StateFailed
		j.errMsg = errMsg
		s.m.jobsFailed.Inc()
	}
	s.m.jobLatency.Observe(j.finished.Sub(j.submitted).Seconds())
	close(j.done)
}

func (s *Server) publishRemoteCanceled(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateCanceled
	j.errMsg = "daemon shutting down"
	j.finished = time.Now()
	delete(s.inflight, j.Key)
	s.m.jobsCanceled.Inc()
	close(j.done)
}

// fetchFromCluster asks every alive peer for the stored result under
// key. Workers call this before executing (a re-owned key may already be
// held elsewhere — recomputing it would break the exactly-once
// invariant); runRemote calls it when no owner is reachable.
func (s *Server) fetchFromCluster(ctx context.Context, key string) ([]byte, bool) {
	if s.mesh == nil {
		return nil, false
	}
	payload, _, ok := s.clusterResultLookup(ctx, key)
	return payload, ok
}

// clusterResultLookup resolves a (possibly abbreviated) key against the
// stores of every alive peer, returning the first hit.
func (s *Server) clusterResultLookup(ctx context.Context, key string) ([]byte, string, bool) {
	for _, p := range s.mesh.AlivePeers() {
		status, hdr, body, err := s.mesh.DoH(ctx, p.ID, http.MethodGet, "/v1/results/"+url.PathEscape(key), nil)
		if err != nil {
			if ctx.Err() == nil {
				s.mesh.ReportFailure(p.ID)
			}
			continue
		}
		s.mesh.ReportSuccess(p.ID)
		if status == http.StatusOK {
			s.mm.remoteHits.Inc()
			full := hdr.Get("X-Store-Key")
			if full == "" {
				full = key
			}
			return body, full, true
		}
	}
	return nil, "", false
}

// ---- replication ----

// replicate pushes a freshly persisted result to the other members of
// its replica set. A failed push journals a hand-off debt so the record
// reaches the replica on a later Rebalance even across a crash. Called
// without the server mutex, after persist succeeded.
func (s *Server) replicate(spec *jobSpec, payload []byte) {
	if s.mesh == nil {
		return
	}
	rec := store.Record{Key: spec.key, Series: spec.series, Label: spec.runLabel, Payload: payload}
	var seq uint64
	if m, ok := s.store.GetMeta(spec.key); ok {
		rec.Series, rec.Label, rec.UnixNano, seq = m.Series, m.Label, m.UnixNano, m.Seq
	}
	frame := store.EncodeFrame(nil, rec, seq)
	ctx, cancel := context.WithTimeout(s.rootCtx, s.cfg.JobTimeout)
	defer cancel()
	for _, target := range s.mesh.ReplicaSet(spec.key) {
		if target == s.mesh.Self() {
			continue
		}
		err := s.pushFrame(ctx, target, frame)
		if s.testReplicateHook != nil {
			s.testReplicateHook(spec.key, target, err)
		}
		if err != nil {
			s.mm.replicationFailures.Inc()
			s.journalHandoff(spec.key, target)
		} else {
			s.mm.replicationPushes.Inc()
		}
	}
}

// pushFrame delivers one framed record to a peer's replicate endpoint.
func (s *Server) pushFrame(ctx context.Context, peer string, frame []byte) error {
	status, _, body, err := s.mesh.DoH(ctx, peer, http.MethodPost, "/v1/mesh/replicate", frame)
	if err != nil {
		if ctx.Err() == nil {
			s.mesh.ReportFailure(peer)
		}
		return err
	}
	s.mesh.ReportSuccess(peer)
	if status != http.StatusOK {
		return fmt.Errorf("replicate to %s: %s", peer, apiError(status, body))
	}
	return nil
}

// Hand-off debts are journaled under "rep|<key>|<peer>"; the rebalance
// scope marker under rebalanceIntentKey. Both live in the mesh journal,
// so Pending() is exactly the replication lag.
const rebalanceIntentKey = "rebalance"

func handoffKey(key, peer string) string { return "rep|" + key + "|" + peer }

func parseHandoffKey(k string) (key, peer string, ok bool) {
	if len(k) < 5 || k[:4] != "rep|" {
		return "", "", false
	}
	rest := k[4:]
	for i := len(rest) - 1; i >= 0; i-- {
		if rest[i] == '|' {
			return rest[:i], rest[i+1:], rest[:i] != "" && rest[i+1:] != ""
		}
	}
	return "", "", false
}

func (s *Server) journalHandoff(key, peer string) {
	if s.meshJournal == nil {
		return
	}
	s.meshJournal.Intent(handoffKey(key, peer), []byte(key))
}

// Rebalance pushes every held record to its current replica set and
// settles journaled hand-off debts. It is idempotent (receivers skip
// records they already hold at the same or newer time) and journal-
// scoped: a pending rebalance marker survives a crash, and trackd runs
// Rebalance at startup and on every membership change, so an
// interrupted round resumes. Returns the number of records delivered.
func (s *Server) Rebalance(ctx context.Context) (int, error) {
	if s.mesh == nil || s.store == nil {
		return 0, nil
	}
	s.rebalanceMu.Lock()
	defer s.rebalanceMu.Unlock()
	s.mm.rebalances.Inc()
	if s.meshJournal != nil {
		s.meshJournal.Intent(rebalanceIntentKey, nil)
	}

	pushed := 0
	failed := map[string]bool{} // handoffKey → push failed this round
	var firstErr error
	var frame []byte
	for _, m := range s.store.List() {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		payload, ok, err := s.store.Get(m.Key)
		if err != nil || !ok {
			continue // unreadable or absent under its listed key
		}
		frame = store.EncodeFrame(frame[:0], store.Record{
			Key: m.Key, Series: m.Series, Label: m.Label, UnixNano: m.UnixNano, Payload: payload,
		}, m.Seq)
		for _, target := range s.mesh.ReplicaSet(m.Key) {
			if target == s.mesh.Self() {
				continue
			}
			if err := s.pushFrame(ctx, target, frame); err != nil {
				failed[handoffKey(m.Key, target)] = true
				s.journalHandoff(m.Key, target)
				if firstErr == nil {
					firstErr = err
				}
			} else {
				pushed++
				s.mm.handoffs.Inc()
			}
		}
	}

	// Settle debts only after a complete scan: every key we hold was
	// pushed to its full current replica set above, so a debt is cleared
	// unless its push failed again this round, its target left the
	// replica set (obsolete), or we no longer hold the record.
	if s.meshJournal != nil && firstErr == nil {
		for _, p := range s.meshJournal.Pending() {
			if p.Key == rebalanceIntentKey {
				continue
			}
			key, peer, ok := parseHandoffKey(p.Key)
			if !ok {
				s.meshJournal.Resolve(p.Key, "undecodable hand-off entry", false)
				continue
			}
			if failed[p.Key] {
				continue // still owed
			}
			if _, held := s.store.GetMeta(key); !held {
				s.meshJournal.Resolve(p.Key, "record no longer held", false)
				continue
			}
			_ = peer // covered by the scan (or obsolete): either way settled
			s.meshJournal.Resolve(p.Key, "", true)
		}
		s.meshJournal.Resolve(rebalanceIntentKey, "", true)
	}
	return pushed, firstErr
}

// ---- scatter-gather reads ----

// scatterMetas gathers /v1/results listings from every alive peer.
func (s *Server) scatterMetas(ctx context.Context, series string) []store.Meta {
	var out []store.Meta
	for _, p := range s.mesh.AlivePeers() {
		path := "/v1/results"
		if series != "" {
			path += "?series=" + url.QueryEscape(series)
		}
		status, _, body, err := s.mesh.DoH(ctx, p.ID, http.MethodGet, path, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var resp struct {
			Results []store.Meta `json:"results"`
		}
		if json.Unmarshal(body, &resp) == nil {
			out = append(out, resp.Results...)
		}
	}
	return out
}

// mergeMetas deduplicates by key (newest submission time wins) and
// orders by submission time — the only ordering that is meaningful
// across nodes, since sequence numbers are node-local.
func mergeMetas(groups ...[]store.Meta) []store.Meta {
	byKey := map[string]store.Meta{}
	for _, g := range groups {
		for _, m := range g {
			if old, ok := byKey[m.Key]; !ok || m.UnixNano > old.UnixNano {
				byKey[m.Key] = m
			}
		}
	}
	out := make([]store.Meta, 0, len(byKey))
	for _, m := range byKey {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UnixNano != out[j].UnixNano {
			return out[i].UnixNano < out[j].UnixNano
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// scatterSeriesNames unions the series names present anywhere.
func (s *Server) scatterSeriesNames(ctx context.Context, local []string) []string {
	seen := map[string]bool{}
	for _, n := range local {
		seen[n] = true
	}
	for _, p := range s.mesh.AlivePeers() {
		status, _, body, err := s.mesh.DoH(ctx, p.ID, http.MethodGet, "/v1/series", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var resp struct {
			Series []string `json:"series"`
		}
		if json.Unmarshal(body, &resp) == nil {
			for _, n := range resp.Series {
				seen[n] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// loadSeriesRunsCluster extends loadSeriesRuns across the cluster:
// gather each alive peer's metas for the series, fetch the payloads we
// do not hold locally, and re-order the union by submission time.
func (s *Server) loadSeriesRunsCluster(ctx context.Context, name string) ([]trajectory.Run, error) {
	runs, err := s.loadSeriesRuns(name)
	if err != nil {
		return nil, err
	}
	have := map[string]bool{}
	for _, r := range runs {
		have[r.Key] = true
	}
	for _, p := range s.mesh.AlivePeers() {
		path := "/v1/results?series=" + url.QueryEscape(name)
		status, _, body, err := s.mesh.DoH(ctx, p.ID, http.MethodGet, path, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var resp struct {
			Results []store.Meta `json:"results"`
		}
		if json.Unmarshal(body, &resp) != nil {
			continue
		}
		for _, m := range resp.Results {
			if have[m.Key] {
				continue
			}
			status, _, payload, err := s.mesh.DoH(ctx, p.ID, http.MethodGet, "/v1/results/"+url.PathEscape(m.Key), nil)
			if err != nil || status != http.StatusOK {
				continue
			}
			run, err := trajectory.ParseRun(payload, m.Key, m.Label, m.UnixNano)
			if err != nil {
				continue
			}
			have[m.Key] = true
			runs = append(runs, run)
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].UnixNano != runs[j].UnixNano {
			return runs[i].UnixNano < runs[j].UnixNano
		}
		return runs[i].Key < runs[j].Key
	})
	return runs, nil
}

// seriesRuns picks cluster-wide or local series loading per request.
func (s *Server) seriesRuns(r *http.Request, name string) ([]trajectory.Run, error) {
	if s.mesh != nil && !viaMesh(r) {
		s.mm.scatters.Inc()
		return s.loadSeriesRunsCluster(r.Context(), name)
	}
	return s.loadSeriesRuns(name)
}

// ---- mesh HTTP endpoints ----

func (s *Server) handleMeshPing(w http.ResponseWriter, r *http.Request) {
	if s.mesh == nil {
		writeError(w, http.StatusNotFound, "clustering not enabled")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"node": s.mesh.Self(), "epoch": s.mesh.Epoch()})
}

func (s *Server) handleMeshReplicate(w http.ResponseWriter, r *http.Request) {
	if s.mesh == nil || s.store == nil {
		writeError(w, http.StatusNotFound, "clustering not enabled")
		return
	}
	applied, skipped, err := s.store.ImportFrames(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mm.replicationReceived.Add(uint64(applied))
	writeJSON(w, http.StatusOK, map[string]int{"applied": applied, "skipped": skipped})
}
