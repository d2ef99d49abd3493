package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func journalTestKey(n int) CellKey {
	return CellKey{Scenario: "BASELINE", N: n, TopologySeed: 1, Origins: 4}
}

func journalTestResult(n int) *Result {
	return &Result{N: n, Origins: 4, TotalUpdates: float64(n) * 1.5}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 200, 300} {
		if err := j.Append(journalTestKey(n), journalTestResult(n)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 3 {
		t.Fatalf("Appended = %d, want 3", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalTestKey(400), journalTestResult(400)); err == nil {
		t.Fatal("append after Close succeeded")
	}

	recs, truncated, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean journal reported truncated")
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	for i, n := range []int{100, 200, 300} {
		if recs[i].Key != journalTestKey(n) {
			t.Fatalf("record %d key = %+v", i, recs[i].Key)
		}
		if recs[i].Result.TotalUpdates != float64(n)*1.5 {
			t.Fatalf("record %d result = %+v", i, recs[i].Result)
		}
	}
}

func TestJournalReopenAppends(t *testing.T) {
	// A resumed run reopens the same journal and keeps appending; earlier
	// records survive, and a rewritten key wins last (first-appearance
	// order preserved).
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalTestKey(100), journalTestResult(100)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	updated := journalTestResult(100)
	updated.TotalUpdates = 999
	if err := j2.Append(journalTestKey(100), updated); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(journalTestKey(200), journalTestResult(200)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2 after dedup", len(recs))
	}
	if recs[0].Key.N != 100 || recs[0].Result.TotalUpdates != 999 {
		t.Fatalf("dedup kept the stale record: %+v", recs[0])
	}
	if recs[1].Key.N != 200 {
		t.Fatalf("record order changed: %+v", recs[1])
	}
}

func TestJournalTornFinalLineTolerated(t *testing.T) {
	// A crash mid-append leaves a torn last line; load must drop exactly
	// that line and report truncated=true.
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalTestKey(100), journalTestResult(100))
	j.Append(journalTestKey(200), journalTestResult(200))
	j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its trailing bytes (newline included).
	if err := os.WriteFile(path, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if !truncated {
		t.Fatal("truncated not reported")
	}
	if len(recs) != 1 || recs[0].Key.N != 100 {
		t.Fatalf("recs = %+v, want only the intact first record", recs)
	}
}

func TestJournalUnterminatedFinalRecordIsTorn(t *testing.T) {
	// A record ends with its newline: a well-formed final record without one
	// is a cut write. LoadJournal must drop it as torn, and the reopen repair
	// must truncate exactly that record and nothing else — the loader and the
	// repair agree, so a resumed run never serves a cell the disk then loses.
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalTestKey(100), journalTestResult(100))
	j.Append(journalTestKey(200), journalTestResult(200))
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := b[:len(b)-1]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := LoadJournal(path)
	if err != nil || !truncated || len(recs) != 1 || recs[0].Key.N != 100 {
		t.Fatalf("load: recs=%+v truncated=%v err=%v, want only N=100 and truncated", recs, truncated, err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := cut[:strings.LastIndexByte(string(cut), '\n')+1]; string(repaired) != string(want) {
		t.Fatalf("repair kept %d bytes, want the %d up to the last newline", len(repaired), len(want))
	}
	recs2, truncated, err := LoadJournal(path)
	if err != nil || truncated || len(recs2) != 1 || recs2[0].Key.N != 100 {
		t.Fatalf("reload: recs=%+v truncated=%v err=%v, want only N=100", recs2, truncated, err)
	}
}

func TestJournalReopenRepairsTornTail(t *testing.T) {
	// The repeated-crash scenario: a crash mid-append leaves a torn final
	// line, the next run reopens the journal and keeps appending. Reopen
	// must truncate the torn tail first — otherwise the first new record
	// concatenates onto it and the merged garbage ends up mid-file, where
	// LoadJournal rightly refuses to repair and resume is wedged for good.
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalTestKey(100), journalTestResult(100))
	j.Append(journalTestKey(200), journalTestResult(200))
	j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-15], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen of torn journal failed: %v", err)
	}
	if err := j2.Append(journalTestKey(300), journalTestResult(300)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(journalTestKey(400), journalTestResult(400)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	recs, truncated, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("journal unloadable after torn-tail reopen: %v", err)
	}
	if truncated {
		t.Fatal("repaired journal still reports truncated")
	}
	want := []int{100, 300, 400}
	if len(recs) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(recs), len(want))
	}
	for i, n := range want {
		if recs[i].Key.N != n {
			t.Fatalf("record %d = %+v, want N=%d", i, recs[i].Key, n)
		}
	}
}

func TestJournalReopenRejectsMidFileCorruption(t *testing.T) {
	// Repair only drops a torn *tail*; a bad line with records after it is
	// corruption that reopen, like LoadJournal, must refuse to paper over.
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalTestKey(100), journalTestResult(100))
	j.Append(journalTestKey(200), journalTestResult(200))
	j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	tampered := strings.Replace(lines[1], `"N":100`, `"N":101`, 1)
	if tampered == lines[1] {
		t.Fatalf("tamper target not found in record: %s", lines[1])
	}
	lines[1] = tampered
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenJournal(path); err == nil {
		t.Fatal("reopen accepted mid-file corruption")
	}

	// Same for a non-journal file: reopen must not append to it.
	bogus := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(bogus, []byte("plain text\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(bogus); err == nil {
		t.Fatal("reopen accepted a non-journal file")
	}
}

func TestJournalMidFileCorruptionFails(t *testing.T) {
	// Corruption before the final line means the file was edited or the
	// filesystem lied: load must fail rather than silently drop records.
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalTestKey(100), journalTestResult(100))
	j.Append(journalTestKey(200), journalTestResult(200))
	j.Close()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want header + 2 records", len(lines))
	}
	// Flip a payload byte inside the FIRST record so its hash mismatches.
	tampered := strings.Replace(lines[1], `"N":100`, `"N":101`, 1)
	if tampered == lines[1] {
		t.Fatalf("tamper target not found in record: %s", lines[1])
	}
	lines[1] = tampered
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := LoadJournal(path); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	} else if !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("error does not name the hash mismatch: %v", err)
	}
}

func TestJournalHeaderValidation(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty.journal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadJournal(empty); err == nil {
		t.Fatal("empty file loaded without error")
	}

	wrongMagic := filepath.Join(dir, "magic.journal")
	if err := os.WriteFile(wrongMagic, []byte(`{"journal":"other","version":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadJournal(wrongMagic); err == nil {
		t.Fatal("wrong magic loaded without error")
	}

	// An older layout is refused like a future one: a resume never mixes
	// results of two layouts.
	for _, v := range []int{JournalVersion - 1, JournalVersion + 1} {
		wrongVersion := filepath.Join(dir, fmt.Sprintf("version%d.journal", v))
		hdr, _ := json.Marshal(journalHeader{Journal: journalMagic, Version: v})
		if err := os.WriteFile(wrongVersion, append(hdr, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d, want %d", v, JournalVersion)
		if _, _, err := LoadJournal(wrongVersion); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d loaded: %v, want an error naming %q", v, err, want)
		}
		if j, err := OpenJournal(wrongVersion); err == nil {
			j.Close()
			t.Fatalf("version %d reopened without error", v)
		}
	}

	// A valid header with zero records is a fresh journal: fine.
	j, err := OpenJournal(filepath.Join(dir, "fresh.journal"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	recs, truncated, err := LoadJournal(j.Path())
	if err != nil || truncated || len(recs) != 0 {
		t.Fatalf("fresh journal: recs=%v truncated=%v err=%v", recs, truncated, err)
	}
}

func TestJournalResultFidelity(t *testing.T) {
	// The byte-identical resume property rests on JSON round-tripping
	// floats exactly (encoding/json emits the shortest representation that
	// parses back to the same float64). Pin that for a Result with
	// non-trivial fractions.
	res := journalTestResult(100)
	res.TotalUpdates = 1.0 / 3.0
	res.DownSeconds = 0.1 + 0.2 // famously not 0.3
	res.ByType[0].U = 2.0 / 7.0

	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalTestKey(100), res); err != nil {
		t.Fatal(err)
	}
	j.Close()

	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records", len(recs))
	}
	if *recs[0].Result != *res {
		t.Fatalf("result drifted through the journal:\nstored %+v\nloaded %+v", res, recs[0].Result)
	}
}

func TestJournalSecondWriterRefused(t *testing.T) {
	// Two appenders on one journal would interleave records and tear each
	// other's tail repair; the second opener must be refused with a typed
	// error while the first holds the file. flock locks belong to the open
	// file description, so a second open in this process contends exactly
	// like a second process would.
	if !journalLocksSupported {
		t.Skip("advisory journal locks unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "cells.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(journalTestKey(100), journalTestResult(100)); err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path)
	var locked *JournalLockedError
	if !errors.As(err, &locked) {
		t.Fatalf("second open: got %v, want *JournalLockedError", err)
	}
	if locked.Path != path {
		t.Fatalf("locked.Path = %q, want %q", locked.Path, path)
	}
	if !strings.Contains(locked.Error(), path) {
		t.Fatalf("error message %q does not name the journal", locked.Error())
	}

	// The lock is advisory and writer-only: readers load the journal while
	// the writer holds it (a live daemon must not block status tooling).
	if recs, _, err := LoadJournal(path); err != nil || len(recs) != 1 {
		t.Fatalf("LoadJournal under writer lock: recs=%d err=%v", len(recs), err)
	}

	// Closing the first writer releases the lock; a clean handoff succeeds.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	j2.Close()
}
