// This file is the durability layer: an append-only journal of job
// submissions, job transitions and monitor create/delete records under
// <data>/jobs, plus atomically-written side files: a per-job resume
// checkpoint (which also carries the rounds it resumes from) and a final
// report. The journal is JSONL, fsynced per record, tolerant of a torn
// final record (a crash mid-append loses at most that record), and
// compacted by atomic tmp+fsync+rename rewrite. The manager replays it
// at boot to re-queue every job that was queued or running when the
// daemon died.

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/report"
)

// journalMaxBytes is the compaction high-water mark: after an append
// pushes the journal past it, the manager rewrites the journal to the
// minimal record set reproducing the current job table.
const journalMaxBytes = 1 << 20

// journalRecord is one journal line. T selects the record type and
// which fields are meaningful:
//
//   - "submit": a job entered the system (Job, Seq, Spec, Created).
//   - "state": a lifecycle transition (State, Error, Attempt; terminal
//     records also carry GraphID, Report, Sims, EarlyStopped).
//   - "mon-create" / "mon-delete": online monitor lifecycle (Job is the
//     monitor id, MonSpec its spec). Monitors re-create empty at boot:
//     their evidence is stream-sourced, the producer re-ingests it.
//
// Replay ignores any other record type and unknown fields, such as the
// "round" and "ckpt" records older daemons wrote.
type journalRecord struct {
	T   string `json:"t"`
	Job string `json:"job"`

	Seq     int           `json:"seq,omitempty"`
	Spec    *CampaignSpec `json:"spec,omitempty"`
	Created time.Time     `json:"created,omitempty"`

	State   JobState  `json:"state,omitempty"`
	Error   string    `json:"error,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	At      time.Time `json:"at,omitempty"`

	GraphID      string `json:"graphId,omitempty"`
	Report       string `json:"report,omitempty"`
	Sims         int    `json:"sims,omitempty"`
	EarlyStopped bool   `json:"earlyStopped,omitempty"`

	MonSpec *MonitorSpec `json:"monitor,omitempty"`
}

// journal is the on-disk job log. Appends are serialized by the
// manager; the internal mutex only guards the handle against disable()
// (the test hook simulating a hard kill) racing an append.
type journal struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	size     int64
	disabled bool
}

// openJournal opens (creating if needed) the journal under dir.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &journal{dir: dir}
	f, err := os.OpenFile(l.path(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		l.size = fi.Size()
	}
	// Seal a torn tail: if the previous process died mid-append, the file
	// ends without a newline, and appending onto it would corrupt the next
	// record too. A newline caps the damage at the already-torn line.
	if l.size > 0 {
		buf := make([]byte, 1)
		if _, rerr := f.ReadAt(buf, l.size-1); rerr == nil && buf[0] != '\n' {
			if _, werr := f.Write([]byte{'\n'}); werr == nil {
				l.size++
			}
		}
	}
	l.f = f
	return l, nil
}

func (l *journal) path() string { return filepath.Join(l.dir, "journal.jsonl") }

// checkpointFile is an anytime job's resume side file: the campaign
// checkpoint plus the job's rounds up to it, written as one file so a
// round is persisted once. A file without Checkpoint is an older
// daemon's bare csnake.Checkpoint.
type checkpointFile struct {
	Checkpoint   *csnake.Checkpoint `json:"checkpoint"`
	SealedRounds []report.JSONRound `json:"sealedRounds"`
}

// ckptName names a job's checkpoint side file.
func ckptName(job string) string { return "ck-" + job + ".json" }

// append writes one record followed by a newline and fsyncs. A record
// is either fully durable or (on a crash mid-write) a torn final line
// that replay skips.
func (l *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.disabled || l.f == nil {
		return nil
	}
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.size += int64(len(data))
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// oversize reports whether the journal passed the compaction mark.
func (l *journal) oversize() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size > journalMaxBytes
}

// replay reads every parseable record in order. Unparseable lines --
// the torn tail of a crashed append, or outright corruption -- are
// skipped, not fatal: the journal is an at-least-this-much record of
// history, and every skipped line costs at most one transition that the
// recovery path re-derives or re-executes.
func (l *journal) replay() ([]journalRecord, int, error) {
	f, err := os.Open(l.path())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var recs []journalRecord
	skipped := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.T == "" || rec.Job == "" {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, skipped, fmt.Errorf("journal: %w", err)
	}
	return recs, skipped, nil
}

// rewrite atomically replaces the journal with recs (tmp + fsync +
// rename) and reopens the append handle -- compaction and boot-time
// segment rotation.
func (l *journal) rewrite(recs []journalRecord) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.disabled {
		return nil
	}
	if err := atomicWriteFile(l.path(), buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if l.f != nil {
		l.f.Close()
	}
	f, err := os.OpenFile(l.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return fmt.Errorf("journal: %w", err)
	}
	l.f = f
	l.size = int64(buf.Len())
	return nil
}

// writeSide atomically persists v as the JSON side file name.
func (l *journal) writeSide(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.disabled {
		return nil
	}
	return atomicWriteFile(filepath.Join(l.dir, name), data, 0o644)
}

// readSide decodes the side file name into v. A missing file returns an
// fs.ErrNotExist error quietly; an unreadable or corrupt one is logged
// here, for every caller, and returned.
func (l *journal) readSide(name string, v any) error {
	data, err := os.ReadFile(filepath.Join(l.dir, name))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		log.Printf("csnaked: skipping corrupt side file %s: %v", name, err)
	}
	return err
}

// removeSide deletes the side file name.
func (l *journal) removeSide(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.disabled {
		os.Remove(filepath.Join(l.dir, name))
	}
}

// disable is the hard-kill test hook: all further journal and side-file
// writes become no-ops, exactly as if the process had died. The on-disk
// state is frozen at the last completed write.
func (l *journal) disable() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.disabled = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// close releases the append handle.
func (l *journal) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// atomicWriteFile writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so a crash leaves
// either the old content or the new -- never a partial file. The
// containing directory is fsynced best-effort to persist the rename.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
