package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs/tracing"
	"pnp/internal/verifyd"
	"pnp/internal/verifyd/client"
)

// cjob is one job as the coordinator tracks it: the submission (kept
// for re-placement) and its document — the single-node job document
// with the placement fields (node, remote_id, failovers,
// cluster_cached) filled in, so existing clients decode it unchanged and
// cluster-aware ones see the routing.
type cjob struct {
	key  verifyd.CacheKey
	req  api.JobRequest
	span *tracing.Span
	done chan struct{} // closed once st.State is "done"
	seq  int           // registration order, the cursor GET /v1/jobs pages over

	// seq, st.ID, st.Submitted and st.TraceID are written once, before
	// the job is reachable; everything else in st is guarded by mu.
	mu sync.Mutex
	st api.Job
}

func (j *cjob) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *cjob) setPlacement(node, remoteID string, attempt int, resumedFrom string) {
	j.mu.Lock()
	j.st.Node, j.st.RemoteID = node, remoteID
	j.st.Attempt, j.st.ResumedFrom = attempt, resumedFrom
	j.mu.Unlock()
}

func (j *cjob) bumpFailover() {
	j.mu.Lock()
	j.st.Failovers++
	j.mu.Unlock()
}

// placement reads the node/remoteID pair for trace fetches.
func (j *cjob) placement() (node, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Node, j.st.RemoteID
}

// fatalSubmitErr reports whether a submission failure would repeat on
// every node: a 4xx that is not a drain signal (bad ADL, oversized
// body). Such errors surface to the caller instead of failing over.
func fatalSubmitErr(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status < 500 && !ae.Temporary() &&
		ae.Status != http.StatusNotFound
}

// transportErr reports whether err carries no API envelope at all — the
// node is unreachable, the "dead, eject" signal (a Temporary APIError
// means the opposite: alive, telling us to go elsewhere).
func transportErr(err error) bool {
	var ae *client.APIError
	return !errors.As(err, &ae)
}

// SubmitJob routes one job into the cluster and returns its
// coordinator-side status. Placement is synchronous — a bad submission
// (ADL error) fails here with the worker's envelope, line and column
// included — while waiting and failover run in the background.
//
// The placement sequence per job: coordinator result cache, then the
// ring walk from the key's owner — each candidate first peeked for a
// cached report, then handed the job. A transport failure ejects the
// candidate and moves on; a drain (503) just moves on.
func (c *Coordinator) SubmitJob(ctx context.Context, req api.JobRequest) (api.Job, error) {
	j, err := c.submitJob(ctx, req)
	if err != nil {
		return api.Job{}, err
	}
	return j.snapshot(), nil
}

// submitJob is SubmitJob returning the live job handle; the sweep
// executor holds it to wait on cells without racing job-table eviction.
func (c *Coordinator) submitJob(ctx context.Context, req api.JobRequest) (*cjob, error) {
	if c.draining.Load() {
		return nil, verifyd.ErrDraining
	}
	key := submissionKey(req)
	jctx, span := c.tracer.StartSpan(ctx, "cluster-job", tracing.A("key", key.String()[:12]))
	j := &cjob{
		key: key, req: req, span: span, done: make(chan struct{}),
		st: api.Job{State: api.JobRunning, Submitted: time.Now()},
	}
	if span != nil {
		j.st.TraceID = span.TraceID().String()
	}

	// Tier 1: the coordinator's own result cache.
	if hit, ok := c.cache.Get(key); ok {
		c.mCacheHits.Inc()
		c.register(j)
		c.finishCached(j, "coordinator", hit.rep)
		return j, nil
	}

	cands := c.route(key)
	if len(cands) == 0 {
		c.closeSpan(j, "error", "no nodes on ring")
		return nil, fmt.Errorf("cluster: no nodes available")
	}
	var lastErr error
	for i, n := range cands {
		if i > 0 {
			j.bumpFailover()
			c.mFailovers.Inc()
		}
		// Tier 2: the candidate's report cache. The first candidate is
		// the ring owner — the node a repeat of this key was routed to
		// before — so this peek is what makes worker caches cluster-wide.
		rep, err := n.pc.CachePeek(ctx, key.String())
		switch {
		case err == nil && rep != nil:
			c.mCacheHits.Inc()
			c.register(j)
			c.finishCached(j, n.name, rep)
			return j, nil
		case err != nil && transportErr(err):
			c.eject(n, err)
			lastErr = err
			continue
		}
		rjob, err := n.rc.Submit(ctx, req)
		if err != nil {
			if fatalSubmitErr(err) {
				c.closeSpan(j, "error", err.Error())
				return nil, err
			}
			if transportErr(err) {
				c.eject(n, err)
			}
			lastErr = err
			continue
		}
		j.setPlacement(n.name, rjob.ID, 1, "")
		n.routed.Inc()
		if span != nil {
			span.SetAttr("node", n.name)
		}
		c.register(j)
		c.wg.Add(1)
		go c.driveJob(jctx, j, cands, i)
		return j, nil
	}
	c.closeSpan(j, "error", fmt.Sprintf("no node accepted the job: %v", lastErr))
	return nil, fmt.Errorf("cluster: no node accepted the job: %w", lastErr)
}

// driveJob waits for a placed job and fails it over along the remaining
// candidates when its node dies or drains mid-run. Re-submission
// carries a resume token — the attempt count and the previous node's
// URL — so the replica can fetch the interrupted search's checkpoint
// and continue it instead of re-exploring; when the previous node is
// truly dead (fetch fails) the replica degrades to a fresh search, and
// the content-addressed caches still make the retry cheap when the
// node got far enough to publish.
func (c *Coordinator) driveJob(ctx context.Context, j *cjob, cands []*node, idx int) {
	defer c.wg.Done()
	n := cands[idx]
	attempt := 1
	for {
		_, remoteID := j.placement()
		rjob, err := n.rc.Wait(ctx, remoteID)
		if err == nil {
			c.finishJob(j, n.name, rjob)
			return
		}
		if fatalSubmitErr(err) {
			c.failJob(j, err)
			return
		}
		if transportErr(err) {
			c.eject(n, err)
		}
		// A 404 also lands here: the node restarted and lost the job —
		// re-place it like any other failover.
		prev := n.name
		placed := false
		for idx++; idx < len(cands); idx++ {
			n = cands[idx]
			j.bumpFailover()
			c.mFailovers.Inc()
			req := j.req
			req.Attempt = attempt + 1
			req.ResumeFrom = prev
			rjob, serr := n.rc.Submit(ctx, req)
			if serr != nil {
				if fatalSubmitErr(serr) {
					c.failJob(j, serr)
					return
				}
				if transportErr(serr) {
					c.eject(n, serr)
				}
				err = serr
				continue
			}
			attempt++
			j.setPlacement(n.name, rjob.ID, attempt, prev)
			n.routed.Inc()
			c.logger.Warn("cluster: job failed over", "job_id", j.st.ID, "node", n.name,
				"attempt", attempt, "resume_from", prev)
			placed = true
			break
		}
		if !placed {
			c.failJob(j, err)
			return
		}
	}
}

// register inserts the job into the coordinator's table under a fresh
// id.
func (c *Coordinator) register(j *cjob) {
	c.mu.Lock()
	c.nextJob++
	j.seq = c.nextJob
	j.st.ID = fmt.Sprintf("job-%d", c.nextJob)
	c.jobs[j.st.ID] = j
	c.mu.Unlock()
	if j.span != nil {
		j.span.SetAttr("job_id", j.st.ID)
	}
}

// retire records a completed job and evicts the oldest beyond the
// retention bound.
func (c *Coordinator) retire(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobOrder = append(c.jobOrder, id)
	for len(c.jobOrder) > c.cfg.RetainJobs {
		delete(c.jobs, c.jobOrder[0])
		c.jobOrder = c.jobOrder[1:]
	}
}

func (c *Coordinator) lookupJob(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// finishCached completes a job from a cache tier without running
// anything. node is "coordinator" for LRU hits, the worker's name for
// peek hits.
func (c *Coordinator) finishCached(j *cjob, node string, rep *api.Report) {
	if node != "coordinator" && verifyd.Cacheable(rep) {
		c.cache.Put(j.key, cachedReport{rep, node})
	}
	j.mu.Lock()
	j.st.State, j.st.Report, j.st.Node = api.JobDone, rep, node
	j.st.ClusterCached = true
	if rep != nil {
		j.st.CacheHits = len(rep.Properties)
	}
	close(j.done)
	j.mu.Unlock()
	c.closeSpan(j, "cache", node)
	c.retire(j.st.ID)
}

// finishJob completes a job from its node's final document and
// publishes the report into the coordinator cache.
func (c *Coordinator) finishJob(j *cjob, node string, rjob *api.Job) {
	rep := rjob.Report
	if verifyd.Cacheable(rep) {
		c.cache.Put(j.key, cachedReport{rep, node})
	}
	j.mu.Lock()
	j.st.State, j.st.Report, j.st.Node = api.JobDone, rep, node
	j.st.CacheHits, j.st.CacheMisses, j.st.Workers = rjob.CacheHits, rjob.CacheMisses, rjob.Workers
	j.st.Modules, j.st.ModulesTotal = rjob.Modules, len(rjob.Modules)
	j.st.ModulesReused, j.st.ModulesCompiled = rjob.ModulesReused, rjob.ModulesCompiled
	close(j.done)
	j.mu.Unlock()
	c.closeSpan(j, "node", node)
	c.retire(j.st.ID)
}

// failJob completes a job with an error after every candidate refused
// it.
func (c *Coordinator) failJob(j *cjob, err error) {
	j.mu.Lock()
	j.st.State, j.st.Err = api.JobDone, err.Error()
	close(j.done)
	j.mu.Unlock()
	c.logger.Warn("cluster: job failed", "job_id", j.st.ID, "err", err)
	c.closeSpan(j, "error", err.Error())
	c.retire(j.st.ID)
}

func (c *Coordinator) closeSpan(j *cjob, attr, val string) {
	if j.span == nil {
		return
	}
	j.span.SetAttr(attr, val)
	j.span.End()
}

// WaitJob blocks until the job completes or ctx expires, returning the
// job's current status either way (nil error only on completion).
func (c *Coordinator) WaitJob(ctx context.Context, j *cjob) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
