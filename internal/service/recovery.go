// This file is the boot-time recovery path: replay the job journal,
// rebuild the job table, and re-queue every job that was queued,
// running, or interrupted when the previous daemon stopped. Anytime
// jobs pick their checkpoint side file back up -- the campaign
// checkpoint plus the rounds it covers -- and continue from their last
// sealed round; batch jobs (and anytime jobs whose side file is missing,
// corrupt, in an older format or inconsistent) re-run from scratch.
// Replay is idempotent: records duplicated by a crash between append and
// compaction coalesce into the same job states.

package service

import (
	"log"

	"repro/internal/report"
)

// recover rebuilds the manager's job table from the journal. Called
// from NewManager before the watchdog and scheduler start, so it needs
// no locking.
func (m *Manager) recover() error {
	recs, skipped, err := m.jl.replay()
	if err != nil {
		return err
	}
	if skipped > 0 {
		log.Printf("csnaked: journal replay skipped %d unparseable record(s)", skipped)
	}
	if len(recs) == 0 {
		return nil
	}

	// Fold the record stream into per-job state (last write wins).
	for _, rec := range recs {
		switch rec.T {
		case "submit":
			if _, ok := m.jobs[rec.Job]; ok || rec.Spec == nil {
				continue // idempotence: duplicate submit records coalesce
			}
			j := newJob(rec.Job, rec.Seq, *rec.Spec, rec.Created)
			m.jobs[j.ID] = j
			m.order = append(m.order, j.ID)
			m.nextID = max(m.nextID, rec.Seq)
		case "state":
			j, ok := m.jobs[rec.Job]
			if !ok {
				continue
			}
			// Left running or interrupted: back on the queue, as resumed.
			st := rec.State
			j.recovered = st == StateRunning || st == StateInterrupted
			if j.recovered {
				st = StateQueued
			}
			j.state = st
			j.err = rec.Error
			j.attempt = rec.Attempt
			if rec.State == StateRunning && j.started.IsZero() {
				j.started = rec.At
			}
			if rec.State.Terminal() {
				j.finished = rec.At
			}
			if rec.GraphID != "" {
				j.graphID = rec.GraphID
			}
			if rec.Report != "" {
				j.reportFile = rec.Report
			}
			if rec.Sims != 0 {
				j.sims = rec.Sims
			}
			if rec.EarlyStopped {
				j.earlyStopped = true
			}
		case "mon-create":
			if _, ok := m.mons[rec.Job]; ok || rec.MonSpec == nil {
				continue // idempotence: duplicate create records coalesce
			}
			rt := newMonitorRuntime(rec.Job, rec.Seq, *rec.MonSpec, rec.Created)
			m.mons[rt.id] = rt
			m.monOrder = append(m.monOrder, rt.id)
			m.monSeq = max(m.monSeq, rec.Seq)
		case "mon-delete":
			m.dropMonitorLocked(rec.Job)
			m.monSeq = max(m.monSeq, rec.Seq)
		}
	}

	// Settle each job: terminal jobs are served from their persisted
	// report; everything else goes back on the queue.
	for _, id := range m.order {
		j := m.jobs[id]
		if j.state.Terminal() {
			m.terminal[j.state]++
			var js report.JSONReport
			if j.reportFile != "" && m.jl.readSide(j.reportFile, &js) == nil {
				j.json = &js
				j.rounds = append([]report.JSONRound(nil), js.Rounds...)
				j.earlyStopped = js.EarlyStopped
			}
			m.simsTotal += int64(j.sims)
			m.roundsTotal += int64(len(j.rounds))
			close(j.done)
			continue
		}

		// The job was queued, running, or interrupted at the crash:
		// re-queue it.
		if j.recovered {
			m.resumed++
		}

		if j.Spec.anytime() {
			var ck checkpointFile
			err := m.jl.readSide(ckptName(id), &ck)
			switch cp := ck.Checkpoint; {
			case err == nil && cp != nil && len(ck.SealedRounds) == cp.Rounds:
				j.ckpt, j.rounds = cp, ck.SealedRounds
			case err == nil && cp == nil:
				log.Printf("csnaked: job %s: checkpoint in an older format: re-running from scratch", id)
			case err == nil:
				log.Printf("csnaked: job %s: checkpoint covers %d rounds but holds %d: re-running from scratch", id, cp.Rounds, len(ck.SealedRounds))
			case j.attempt > 0: // missing, or corrupt (logged by readSide)
				log.Printf("csnaked: job %s: no usable checkpoint: re-running from scratch", id)
			}
		}
		if j.ckpt == nil {
			m.jl.removeSide(ckptName(id))
		}
		m.roundsTotal += int64(len(j.rounds))
		m.queue = append(m.queue, j)
	}

	// Rotate the replayed journal down to the minimal equivalent record
	// set, so repeated crash/restart cycles don't grow it unboundedly.
	m.compactJournal()
	return nil
}
