package repository

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// Legacy migration: a pre-WAL store is a single sqalpel.json document. Open
// must load it transparently, re-persist it as a generation, and park the
// original under sqalpel.json.migrated — and the migrated store must be
// deep-equal to what Load sees in the legacy file.

// storeImage flattens a store into deterministically ordered, deep-
// comparable state: exactly what must survive any persistence round trip
// (sameImage compares two).
type storeImage struct {
	Users    []*User
	Projects []*Project
	Results  []*Result
	Comments []*Comment
	Tasks    []*Task
}

// sameImage reports whether two images hold the same state. Where a row's
// sealed bytes stand in its arena depends on the moderations its store saw
// since it was opened, so rows are compared by their fields and by their
// bytes.
func sameImage(a, b storeImage) bool {
	if len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if !bytes.Equal(a.Results[i].JSON(), b.Results[i].JSON()) {
			return false
		}
	}
	return reflect.DeepEqual(unplaced(a), unplaced(b))
}

// unplaced returns the image with copies of its rows that hold no place
// in an arena.
func unplaced(img storeImage) storeImage {
	rows := make([]*Result, len(img.Results))
	for i, r := range img.Results {
		cp := *r
		cp.blk, cp.off, cp.end = nil, 0, 0
		rows[i] = &cp
	}
	img.Results = rows
	return img
}

func imageOf(s *Store) storeImage {
	var img storeImage
	img.Users = s.Users() // sorted by nickname already
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, p := range sh.projects {
			img.Projects = append(img.Projects, p)
		}
		img.Results = append(img.Results, sh.results...)
		img.Comments = append(img.Comments, sh.comments...)
		for _, task := range sh.tasks {
			img.Tasks = append(img.Tasks, task)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(img.Projects, func(i, j int) bool { return img.Projects[i].ID < img.Projects[j].ID })
	sort.Slice(img.Results, func(i, j int) bool { return img.Results[i].ID < img.Results[j].ID })
	sort.Slice(img.Comments, func(i, j int) bool { return img.Comments[i].ID < img.Comments[j].ID })
	sort.Slice(img.Tasks, func(i, j int) bool { return img.Tasks[i].ID < img.Tasks[j].ID })
	return img
}

// writeLegacyStore serialises a store into the pre-WAL single-document
// format, exactly as the old Save wrote it.
func writeLegacyStore(t *testing.T, s *Store, dir string) {
	t.Helper()
	img := imageOf(s)
	snap := snapshot{
		Users:         img.Users,
		Projects:      img.Projects,
		Results:       img.Results,
		Comments:      img.Comments,
		Tasks:         img.Tasks,
		NextProjectID: s.nextProjectID,
		NextResultID:  int(s.nextResultID.Load()) + 1,
		NextCommentID: int(s.nextCommentID.Load()) + 1,
		NextTaskID:    int(s.nextTaskID.Load()) + 1,
		SavedAt:       s.now(),
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyStoreMigratesToWAL(t *testing.T) {
	// A populated store: projects on several shards, results (one traced),
	// comments, finished and running tasks.
	seed, pub, priv := fixture(t)
	ownerKey := seed.Project(pub.ID).Contributors[0].Key
	if _, err := seed.AddResultTraced(ownerKey, 1, 1, "vektor-1.0", "laptop", []float64{0.1, 0.09}, "", map[string]string{"warm": "yes"}, sampleTrace(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.AddComment("ying", pub.ID, "looks right"); err != nil {
		t.Fatal(err)
	}
	task, err := seed.RequestTask(ownerKey, 1, "columba-1.0", "laptop")
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	if _, err := seed.CompleteTask(task.ID, ownerKey, []float64{0.2}, "", nil); err != nil {
		t.Fatal(err)
	}
	if task, err = seed.RequestTask(ownerKey, 1, "vektor-1.0", "jetson"); err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	_ = priv

	dir := t.TempDir()
	writeLegacyStore(t, seed, dir)

	// What the legacy reader sees is the reference.
	legacy, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := imageOf(legacy)

	// Open migrates: different shard count than the seed on purpose.
	migrated, err := open(dir, 3, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	if got := imageOf(migrated); !sameImage(got, want) {
		t.Fatalf("migrated store differs from legacy load:\n got %+v\nwant %+v", got, want)
	}

	// The legacy file is parked, a generation is authoritative.
	if _, err := os.Stat(filepath.Join(dir, legacyFile)); !os.IsNotExist(err) {
		t.Fatalf("legacy file still present after migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, migratedFile)); err != nil {
		t.Fatalf("parked legacy file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, currentFile)); err != nil {
		t.Fatalf("CURRENT missing after migration: %v", err)
	}

	// New work lands in the WAL; id allocation continues past the legacy
	// counters instead of reusing ids.
	r, err := migrated.AddResult(ownerKey, 1, 2, "columba-1.0", "laptop", []float64{0.3}, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range want.Results {
		if old.ID == r.ID {
			t.Fatalf("migrated store reused result id %d", r.ID)
		}
	}
	if err := migrated.Close(); err != nil {
		t.Fatal(err)
	}

	// The reopened store (now from the generation, not the legacy file)
	// still matches, plus the post-migration result.
	reopened, err := open(dir, 3, quietLogf, nosyncFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := imageOf(reopened)
	if len(got.Results) != len(want.Results)+1 {
		t.Fatalf("reopened store has %d results, want %d", len(got.Results), len(want.Results)+1)
	}
	got.Results = got.Results[:len(want.Results)]
	if !sameImage(got, want) {
		t.Fatalf("reopened store differs from legacy load:\n got %+v\nwant %+v", got, want)
	}

	// And a plain Load still reads the generation layout too.
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(imageOf(loaded).Results) != len(want.Results)+1 {
		t.Fatal("Load does not read the generation layout")
	}
}
