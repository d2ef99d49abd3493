package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The cell journal is the scheduler's crash-safe checkpoint: one JSONL file
// under the run's results directory recording every successfully computed
// (CellKey, Result) pair. A restarted run replays the journal into the
// scheduler's singleflight cache (Scheduler.AttachJournal), so only cells
// absent from the journal — never-computed, quarantined, or in flight when
// the process died — are recomputed.
//
// Crash-safety model (documented in DESIGN.md, "Failure model"):
//
//   - the file is created atomically: the header line is written to a temp
//     file in the same directory and renamed into place, so a journal path
//     either does not exist or starts with a valid header;
//   - each record is appended with a single write and fsynced, and embeds a
//     content hash (FNV-1a over the record's canonical JSON) — a torn or
//     half-flushed final line fails validation and is tolerated on load;
//   - a record ends with its newline; one scanner (scanJournal) applies that
//     rule for both LoadJournal and the reopen repair, and reopening an
//     existing journal truncates exactly the torn final line the loader
//     reports, so a crash can never leave garbage that a later append would
//     bury mid-file;
//   - corruption anywhere before the final line means the file was edited
//     or the filesystem lied, which resume must not paper over: Load
//     returns an error instead of silently dropping interior records.
//
// Checkpointing happens once per computed cell — never inside the DES event
// loop — so the kernel's zero-allocation steady state is untouched (see
// `make smoke` and the journal row of the root TestRunCEventsAllocBudget).

// journalMagic identifies the file type in the header line.
const journalMagic = "bgpchurn-cells"

// JournalVersion is the current journal layout; bump on breaking changes.
// Version 2: a Result's Q and E are ratios of sums (RelationFactors), where
// version 1 held means of per-node ratios, so a v1 journal is refused rather
// than resumed into a figure that mixes the two.
const JournalVersion = 2

// journalHeader is the first line of every journal file.
type journalHeader struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
}

// journalCell is the hashed payload of one record line.
type journalCell struct {
	Key    CellKey `json:"key"`
	Result *Result `json:"result"`
}

// journalLine is one record as stored: the payload plus its content hash.
// Cell stays a RawMessage on load so the hash is verified over the exact
// stored bytes, not a re-marshalled approximation.
type journalLine struct {
	Sum  string          `json:"sum"`
	Cell json.RawMessage `json:"cell"`
}

// JournalRecord is one replayable checkpoint: a cell key and its result.
type JournalRecord struct {
	Key    CellKey
	Result *Result
}

// cellSum hashes a record payload (FNV-1a, hex).
func cellSum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Journal is an append-only cell checkpoint writer. Safe for concurrent
// use; the scheduler appends from its worker goroutines.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	appended int
	err      error // first append failure, sticky
}

// JournalLockedError reports that a journal is already open for appending in
// another process (or another Journal in this one). Two concurrent appenders
// would interleave records and tear each other's tail repair, so the second
// opener is refused outright rather than queued.
type JournalLockedError struct {
	// Path is the contested journal file.
	Path string
}

func (e *JournalLockedError) Error() string {
	return fmt.Sprintf("core: journal %s: already locked by another writer (point each process at its own -journal path)", e.Path)
}

// JournalLocksSupported reports whether this platform enforces the
// exclusive-writer journal lock (advisory flock). Where it returns false,
// OpenJournal never fails with JournalLockedError and concurrent writers
// are not detected.
func JournalLocksSupported() bool { return journalLocksSupported }

// OpenJournal opens the journal at path for appending, creating it (and
// parent directories) with a header line if it does not exist. Creation is
// atomic: a partially created journal is never visible at path. The opener
// takes an exclusive advisory lock (flock) on the file for the life of the
// Journal; a second concurrent opener — say, a stray cmd/experiments run
// pointed at a churnd daemon's journal — fails fast with a
// *JournalLockedError instead of interleaving appends. Readers
// (LoadJournal) are unaffected: the lock is advisory and only writers take
// it. Once the lock is held the file is validated by the same scan
// LoadJournal runs, and a torn final line left by a crash mid-append is
// truncated away, so appends always start on a record boundary.
func OpenJournal(path string) (*Journal, error) {
	j, _, _, err := openJournal(path, false)
	return j, err
}

// openJournal is OpenJournal plus, when collect is set, the records of the
// existing file, read by the one scan that validates and repairs it. torn
// reports that a torn final line was truncated.
func openJournal(path string, collect bool) (j *Journal, recs []JournalRecord, torn bool, err error) {
	if path == "" {
		return nil, nil, false, fmt.Errorf("core: empty journal path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, false, fmt.Errorf("core: journal: %w", err)
	}
	if _, err := os.Stat(path); os.IsNotExist(err) {
		if err := createJournal(path); err != nil {
			return nil, nil, false, fmt.Errorf("core: journal: %w", err)
		}
	} else if err != nil {
		return nil, nil, false, fmt.Errorf("core: journal: %w", err)
	}
	// One fd serves the scan, the repair and the appends: reads start at
	// offset 0, and O_APPEND puts every write at the (repaired) EOF.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: journal: %w", err)
	}
	held, err := lockJournalFile(f)
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("core: journal %s: %w", path, err)
	}
	if !held {
		f.Close()
		return nil, nil, false, &JournalLockedError{Path: path}
	}
	// Repair only under the lock: a concurrent writer truncating the tail
	// while this process appends is exactly the interleaving the lock rules
	// out. Left in place, a torn tail would have the next Append concatenated
	// onto it, burying garbage mid-file where the scan rightly refuses to
	// repair — the journal would become permanently unloadable.
	recs, end, torn, err := scanJournal(f, path, collect)
	if err == nil && torn {
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("core: journal %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, false, err
	}
	return &Journal{path: path, f: f}, recs, torn, nil
}

// createJournal writes a header-only journal to a temp file in path's
// directory and renames it into place.
func createJournal(path string) error {
	hdr, err := json.Marshal(journalHeader{Journal: journalMagic, Version: JournalVersion})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".journal-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(hdr, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Append checkpoints one computed cell: a single hashed JSONL line, written
// in one call and fsynced so a completed cell survives a crash immediately
// after. Append failures are sticky (see Err) and returned, but the
// scheduler treats them as non-fatal: losing a checkpoint must not fail the
// computation it checkpoints.
func (j *Journal) Append(key CellKey, res *Result) error {
	payload, err := json.Marshal(journalCell{Key: key, Result: res})
	if err != nil {
		return j.fail(fmt.Errorf("core: journal: %w", err))
	}
	line, err := json.Marshal(journalLine{Sum: cellSum(payload), Cell: payload})
	if err != nil {
		return j.fail(fmt.Errorf("core: journal: %w", err))
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.err = fmt.Errorf("core: journal: append after Close")
		return j.err
	}
	if _, err := j.f.Write(line); err != nil {
		j.err = fmt.Errorf("core: journal: %w", err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("core: journal: %w", err)
		return j.err
	}
	j.appended++
	return nil
}

func (j *Journal) fail(err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Appended returns the number of records written by this writer.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the first append failure, if any. A run should surface it as
// a warning: the results are fine, but the checkpoint is incomplete.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the underlying file. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil && j.err == nil {
		j.err = err
	}
	return err
}

// LoadJournal reads a journal written by Journal.Append. It returns the
// replayable records (last record wins on duplicate keys, preserving first
// appearance order) and whether a torn final line was dropped — exactly the
// line a reopen (OpenJournal) truncates. See scanJournal for the rules.
func LoadJournal(path string) (records []JournalRecord, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	records, _, truncated, err = scanJournal(f, path, true)
	return records, truncated, err
}

// scanJournal is the one reader of the journal format, shared by LoadJournal
// and the reopen repair. It returns the records when collect is set (last
// wins on duplicate keys), the byte offset just past the last intact line,
// and whether a torn final line follows it.
//
// A line is intact only with its newline: Append writes record and newline
// in one call, so a line without one is a cut write, however well-formed.
// The header must be intact and valid, or the file is not a journal. After
// it, blank lines are skipped, and tolerance is deliberately asymmetric: the
// first bad line is a torn tail — the expected signature of a crash
// mid-append — when nothing follows it, and corruption (an error: the file
// was edited or the filesystem lied) when anything does.
func scanJournal(r io.Reader, path string, collect bool) (records []JournalRecord, end int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	byKey := map[CellKey]int{} // key -> index in records, for last-wins dedup
	var tornErr error          // why the pending torn line is bad
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, 0, false, fmt.Errorf("core: journal %s: %w", path, rerr)
		}
		if len(line) == 0 {
			if lineNo == 1 {
				return nil, 0, false, fmt.Errorf("core: journal %s: empty file (missing header)", path)
			}
			return records, end, tornErr != nil, nil
		}
		if tornErr != nil {
			return nil, 0, false, tornErr
		}
		intact := rerr == nil
		content := bytes.TrimSuffix(line, []byte{'\n'})
		if lineNo == 1 {
			var hdr journalHeader
			if !intact || json.Unmarshal(content, &hdr) != nil || hdr.Journal != journalMagic {
				return nil, 0, false, fmt.Errorf("core: journal %s: invalid header", path)
			}
			if hdr.Version != JournalVersion {
				return nil, 0, false, fmt.Errorf("core: journal %s: version %d, want %d", path, hdr.Version, JournalVersion)
			}
			end += int64(len(line))
			continue
		}
		if len(content) == 0 {
			end += int64(len(line))
			continue
		}
		rec, perr := parseJournalLine(content)
		if perr == nil && !intact {
			perr = fmt.Errorf("record without its newline")
		}
		if perr != nil {
			tornErr = fmt.Errorf("core: journal %s: line %d: %w", path, lineNo, perr)
			continue
		}
		end += int64(len(line))
		if !collect {
			continue
		}
		if i, ok := byKey[rec.Key]; ok {
			records[i] = rec
			continue
		}
		byKey[rec.Key] = len(records)
		records = append(records, rec)
	}
}

// parseJournalLine validates and decodes one record line.
func parseJournalLine(line []byte) (JournalRecord, error) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return JournalRecord{}, fmt.Errorf("unparseable record: %w", err)
	}
	if len(jl.Cell) == 0 {
		return JournalRecord{}, fmt.Errorf("record without cell payload")
	}
	if got := cellSum(jl.Cell); got != jl.Sum {
		return JournalRecord{}, fmt.Errorf("content hash mismatch (stored %s, computed %s)", jl.Sum, got)
	}
	var cell journalCell
	if err := json.Unmarshal(jl.Cell, &cell); err != nil {
		return JournalRecord{}, fmt.Errorf("unparseable cell payload: %w", err)
	}
	if cell.Result == nil {
		return JournalRecord{}, fmt.Errorf("record without result")
	}
	return JournalRecord{Key: cell.Key, Result: cell.Result}, nil
}
