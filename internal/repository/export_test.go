package repository

import (
	"path/filepath"
	"sort"
)

// Load reads a store previously written by Save (any generation layout) or
// by the legacy single-file format, without attaching a write-ahead log: a
// missing directory yields an empty store rather than an error. The tests
// read a live store's directory with it without writing there; a server
// opens its store with Open.
func Load(dir string) (*Store, error) {
	s := NewStore()
	if err := loadInto(s, dir); err != nil {
		return nil, err
	}
	return s, nil
}

// Save persists the store to dir: a checkpoint on the store's own data
// directory, and on any other directory (or for an in-memory store) a
// complete new generation of snapshots, which Load reads back.
func (s *Store) Save(dir string) error {
	if s.dir != "" && filepath.Clean(dir) == filepath.Clean(s.dir) {
		return s.Checkpoint()
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	//lint:iolocked persistMu serialises whole-store persistence only (no reader ever takes it); the export must not interleave with another Save
	_, err := s.writeGeneration(dir, nil)
	return err
}

// Users returns all users sorted by nickname.
func (s *Store) Users() []*User {
	s.metaMu.RLock()
	defer s.metaMu.RUnlock()
	out := make([]*User, 0, len(s.users))
	for _, u := range s.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nickname < out[j].Nickname })
	return out
}

// logRecord logs r on the shard of the project through logApply, under the
// shard lock: how a test writes a record that only old logs hold (a kill,
// a delete, a pool append, a catalog reference), so that replay still sees
// every op.
func (s *Store) logRecord(projectID int, op string, r shardRecord) error {
	sh := s.shardFor(projectID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.logApply(op, r)
}
