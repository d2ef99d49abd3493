package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzJournalBytes builds a well-formed two-record journal and returns its
// raw bytes, the substrate the seed corpus mutates.
func fuzzJournalBytes(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(journalTestKey(1), journalTestResult(1)); err != nil {
		f.Fatal(err)
	}
	if err := j.Append(journalTestKey(2), journalTestResult(2)); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzOpenJournal feeds arbitrary bytes to the journal reopen path and
// asserts the crash-safety contract: LoadJournal and OpenJournal never
// panic and accept or reject the same files; whenever reopen succeeds, the
// repaired file reloads cleanly (no error, no torn tail — resume never
// starts from garbage) to exactly the records LoadJournal returned before
// the reopen, and the repair removed bytes exactly when LoadJournal had
// reported a torn tail; and a subsequent append lands intact.
func FuzzOpenJournal(f *testing.F) {
	full := fuzzJournalBytes(f)
	f.Add(full)
	for _, cut := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 1} {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	noNewline := append([]byte(nil), full...)
	f.Add(noNewline[:len(noNewline)-1]) // valid final record, torn terminator
	f.Add([]byte(`{"journal":"bgpchurn-cells","version":2}` + "\n"))
	f.Add([]byte(`{"journal":"bgpchurn-cells","version":3}` + "\n"))
	f.Add([]byte(`{"journal":"something-else","version":2}` + "\n"))
	f.Add([]byte(`{"journal":"bgpchurn-cells","version":2}` + "\n\n\n"))
	f.Add([]byte("not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cells.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		loaded, loadTorn, loadErr := LoadJournal(path) // must not panic on any input
		j, openErr := OpenJournal(path)                // must not panic; may repair the tail
		if openErr != nil {
			if loadErr == nil {
				t.Fatalf("OpenJournal rejects a journal LoadJournal accepts: %v", openErr)
			}
			return
		}
		defer j.Close()
		if loadErr != nil {
			// LoadJournal refuses mid-file corruption; reopen succeeding here
			// means the two disagree on what corruption is — a mis-resume
			// waiting to happen.
			t.Fatalf("OpenJournal repaired a journal LoadJournal rejects: %v", loadErr)
		}

		// Repair ran: the file must now be a clean journal — a resumed
		// scheduler must never see an error or a torn tail here — holding
		// exactly what the loader served, the repair having cut exactly the
		// tail the loader reported torn.
		before, truncated, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("journal unreadable after successful reopen: %v", err)
		}
		if truncated {
			t.Fatal("torn tail survived the reopen repair")
		}
		if !reflect.DeepEqual(before, loaded) {
			t.Fatalf("reopen changed the records: loaded %d before it, %d after", len(loaded), len(before))
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if repaired := st.Size() < int64(len(data)); repaired != loadTorn {
			t.Fatalf("LoadJournal reported torn=%v, but the repair cut %d bytes", loadTorn, int64(len(data))-st.Size())
		}

		// Appends after repair must land on a record boundary and survive a
		// reload, regardless of what the tail looked like before.
		key, res := journalTestKey(999), journalTestResult(999)
		if err := j.Append(key, res); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, truncated, err := LoadJournal(path)
		if err != nil {
			t.Fatalf("journal unreadable after append: %v", err)
		}
		if truncated {
			t.Fatal("clean append produced a torn tail")
		}
		want := len(before) + 1
		for _, r := range before {
			if r.Key == key {
				want = len(before) // last-wins dedup collapses the duplicate
				break
			}
		}
		if len(after) != want {
			t.Fatalf("reload has %d records, want %d", len(after), want)
		}
		found := false
		for _, r := range after {
			if r.Key == key {
				found = true
				if r.Result.TotalUpdates != res.TotalUpdates {
					t.Fatalf("appended record corrupted on reload: %+v", r.Result)
				}
			}
		}
		if !found {
			t.Fatal("appended record missing after reload")
		}
		// Pre-existing records survive the repair and the append.
		for i, r := range before {
			if r.Key == key {
				continue
			}
			if i >= len(after) || after[i].Key != r.Key {
				t.Fatalf("record %d (%+v) lost or reordered by append", i, r.Key)
			}
		}
	})
}
