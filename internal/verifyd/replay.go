package verifyd

import (
	"context"
	"sort"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/checker"
)

// The restart half of a DataDir server: folding the journal back into
// the job table when OpenServer starts, and keeping the journal
// foldable (journalLive) while it runs.

// replay folds journal records back into server state: completed jobs
// are re-registered done (verdicts served from disk), incomplete jobs
// are rebuilt from their journaled wire requests and returned for
// re-enqueueing. Incomplete jobs sharing a submission key are deduped —
// the first becomes the leader and actually runs; followers wait for
// its report, so a crash can never cause duplicate execution of one
// submission. Runs before the worker pool starts; no locking needed.
func (s *Server) replay(recs []journalRecord) []*Job {
	type replayJob struct {
		accepted  *journalRecord
		completed *journalRecord
		attempts  int
	}
	byID := make(map[string]*replayJob)
	var order []string
	for i := range recs {
		rec := &recs[i]
		rj := byID[rec.ID]
		if rj == nil {
			rj = &replayJob{}
			byID[rec.ID] = rj
			order = append(order, rec.ID)
		}
		switch rec.Type {
		case recAccepted:
			rj.accepted = rec
		case recStarted:
			if rec.Attempt > rj.attempts {
				rj.attempts = rec.Attempt
			}
		case recCompleted:
			rj.completed = rec
		}
		if rec.Seq > s.nextID {
			s.nextID = rec.Seq
		}
	}

	closedCh := make(chan struct{})
	close(closedCh)
	var requeue []*Job
	leaders := make(map[string]*Job) // submission key -> re-enqueued leader
	for _, id := range order {
		rj := byID[id]
		switch {
		case rj.completed != nil:
			rec := rj.completed
			job := &Job{
				Job: api.Job{
					ID: id, State: api.JobDone, Submitted: rec.Time, Report: rec.Report,
					CacheHits: rec.CacheHits, CacheMisses: rec.CacheMisses,
					Modules: rec.Modules, ModulesTotal: len(rec.Modules),
					ModulesReused: rec.ModulesReused, ModulesCompiled: rec.ModulesCompiled,
					Attempt: max(rec.Attempt, 1),
				},
				done: closedCh, seq: rec.Seq,
			}
			s.jobs[id] = job
			s.doneIDs = append(s.doneIDs, id)
			if key, ok := parseCacheKey(rec.Key); ok && rec.Report != nil && Cacheable(rec.Report) {
				s.reports.Put(key, rec.Report)
			}
			s.cRecovered.Add(1)
		case rj.accepted != nil && rj.accepted.Req != nil:
			rec := rj.accepted
			req := rec.Req
			resolve := s.resolver(req.Components)
			sys, err := adl.LoadModular(req.ADL, resolve, s.artifacts)
			if err != nil {
				s.log.Error("journal replay: job no longer composes; dropping",
					"job_id", id, "err", err.Error())
				continue
			}
			job := &Job{
				Job: api.Job{
					ID: id, State: api.JobQueued, Submitted: rec.Time,
					Attempt: max(rj.attempts, rec.Attempt) + 1, ResumedFrom: "journal",
					Modules: sys.Modules, ModulesTotal: len(sys.Modules),
					ModulesReused: sys.ModulesReused, ModulesCompiled: sys.ModulesCompiled,
				},
				sys: sys, opts: s.jobOptions(*req),
				timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
				done:    make(chan struct{}), seq: rec.Seq, jreq: req,
				tctx: context.Background(),
			}
			if key, ok := parseCacheKey(rec.Key); ok {
				job.subKey = &key
			}
			s.jobs[id] = job
			s.jobsWG.Add(1)
			s.cRecovered.Add(1)
			if job.subKey != nil {
				if leader, dup := leaders[rec.Key]; dup {
					// Follower: mirror the leader's report when it lands.
					go s.finishFollower(job, leader)
					s.log.Info("job recovered (deduped onto leader)",
						"job_id", id, "leader", leader.ID, "attempt", job.Attempt)
					continue
				}
				leaders[rec.Key] = job
			}
			requeue = append(requeue, job)
			s.log.Info("job recovered; re-enqueued", "job_id", id, "attempt", job.Attempt)
		}
	}
	for len(s.doneIDs) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	return requeue
}

// finishFollower completes a replayed duplicate submission from its
// leader's report — zero duplicate execution for same-key submissions.
func (s *Server) finishFollower(job *Job, leader *Job) {
	<-leader.done
	snap := s.snapshotJob(leader)
	rep := snap.Report
	hits := 0
	if rep != nil {
		hits = len(rep.Properties)
	}
	s.mu.Lock()
	job.Report = rep
	job.CacheHits = hits
	job.State = api.JobDone
	job.sys = nil
	job.opts = checker.Options{}
	job.jreq = nil
	s.doneIDs = append(s.doneIDs, job.ID)
	for len(s.doneIDs) > s.cfg.RetainJobs {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.mu.Unlock()
	if s.journal != nil && rep != nil {
		s.appendJournal(journalRecord{
			Type: recCompleted, ID: job.ID, Seq: job.seq, Time: time.Now(),
			Key: subKeyHex(job), Report: rep, Attempt: job.Attempt, CacheHits: hits,
		})
	}
	s.log.Info("job done (follower of "+leader.ID+")", "job_id", job.ID)
	s.mCompleted.Inc()
	close(job.done)
	s.jobsWG.Done()
}

// journalLive snapshots the records compaction must keep: one
// self-contained completed record per retained done job, the accepted
// record for every job still queued or running. The journal calls it
// under its own lock; it takes s.mu — safe because no code path appends
// to the journal while holding s.mu.
func (s *Server) journalLive() []journalRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	var recs []journalRecord
	for _, j := range jobs {
		switch {
		case j.State == api.JobDone:
			if j.Report == nil {
				continue
			}
			recs = append(recs, journalRecord{
				Type: recCompleted, ID: j.ID, Seq: j.seq, Time: j.Submitted,
				Key: subKeyHex(j), Report: j.Report, Attempt: j.Attempt,
				CacheHits: j.CacheHits, CacheMisses: j.CacheMisses,
				Modules:       j.Modules,
				ModulesReused: j.ModulesReused, ModulesCompiled: j.ModulesCompiled,
			})
		case j.jreq != nil:
			recs = append(recs, journalRecord{
				Type: recAccepted, ID: j.ID, Seq: j.seq, Time: j.Submitted,
				Key: subKeyHex(j), Req: j.jreq, Attempt: j.Attempt,
			})
		}
	}
	return recs
}
