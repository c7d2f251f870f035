// This file is the boot-time recovery path: replay the job journal,
// rebuild the job table, and re-queue every job that was queued,
// running, or interrupted when the previous daemon stopped. Anytime
// jobs pick their resume checkpoint back up and continue from their
// last sealed round; batch jobs (and anytime jobs whose checkpoint is
// missing or stale) re-run from scratch. Replay is idempotent: records
// duplicated by a crash between append and compaction coalesce into the
// same job states.

package service

import (
	"encoding/json"
	"log"

	"repro/internal/core/csnake"
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

	// Fold the record stream into per-job state (last write wins; rounds
	// go through putRound as the live observer's do, so a retried
	// attempt's rounds overwrite the failed one's).
	ckptRounds := make(map[string]int)
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
		case "round":
			j, ok := m.jobs[rec.Job]
			if !ok || rec.Round == nil {
				continue
			}
			j.putRound(*rec.Round)
		case "ckpt":
			ckptRounds[rec.Job] = rec.Rounds
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
			if data := m.jl.readReport(j.reportFile); data != nil {
				var js report.JSONReport
				if err := json.Unmarshal(data, &js); err == nil {
					j.json = &js
					j.rounds = append([]report.JSONRound(nil), js.Rounds...)
					j.earlyStopped = js.EarlyStopped
				} else {
					log.Printf("csnaked: job %s: skipping corrupt report %s: %v", id, j.reportFile, err)
				}
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
			if data := m.jl.readCheckpoint(id); data != nil {
				var cp csnake.Checkpoint
				if err := json.Unmarshal(data, &cp); err != nil {
					log.Printf("csnaked: job %s: skipping corrupt checkpoint: %v", id, err)
				} else if want, ok := ckptRounds[id]; ok && cp.Rounds != want {
					// The journal and side file disagree (crash between the
					// two writes): trust neither, re-run from scratch.
					log.Printf("csnaked: job %s: checkpoint covers %d rounds, journal says %d: re-running from scratch", id, cp.Rounds, want)
				} else if cp.Rounds > len(j.rounds) {
					log.Printf("csnaked: job %s: checkpoint covers %d rounds but journal replayed %d: re-running from scratch", id, cp.Rounds, len(j.rounds))
				} else {
					j.ckpt = &cp
					j.rounds = j.rounds[:cp.Rounds]
				}
			}
		}
		if j.ckpt == nil {
			// Scratch re-run: the trajectory will be regenerated.
			j.rounds = nil
			m.jl.removeCheckpoint(id)
		}
		m.roundsTotal += int64(len(j.rounds))
		m.queue = append(m.queue, j)
	}

	// Rotate the replayed journal down to the minimal equivalent record
	// set, so repeated crash/restart cycles don't grow it unboundedly.
	m.compactJournal()
	return nil
}
