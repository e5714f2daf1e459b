// Package repository is the lockmarshal fixture: a miniature of the real
// store — write locks, a WAL writer, the blessed logApply seam, and a
// one-hop I/O helper — exercising every flag/exempt decision the analyzer
// makes.
package repository

import (
	"encoding/json"
	"os"
	"sync"
)

type walSink interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

type walWriter struct{ sink walSink }

// log encodes, frames, writes and fsyncs one record: I/O by definition.
func (w *walWriter) log(op string, payload any) error {
	b, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if _, err := w.sink.Write(b); err != nil {
		return err
	}
	return w.sink.Sync()
}

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	wal  *walWriter
	data map[string]int
}

// logApply is the blessed WAL seam: encode+append+fsync under the data
// lock is the durability discipline itself (log order equals apply order).
//
//lint:iolocked WAL seam: append+fsync must happen under the same lock as the in-memory apply
func (s *store) logApply(op string, payload any) error {
	return s.wal.log(op, payload)
}

// writeFileAtomic performs direct I/O, making it a one-hop I/O callee.
func writeFileAtomic(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// marshalUnderLock is the PR 5 race shape verbatim.
func (s *store) marshalUnderLock() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(s.data) // want `json.Marshal while write lock s.mu is held`
}

// helperUnderLock: the one-hop propagation catches local helpers too.
func (s *store) helperUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(path, nil) // want `writeFileAtomic while write lock s.mu is held`
}

// walLogUnderLock: direct WAL writer use outside logApply is flagged.
func (s *store) walLogUnderLock(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.log(op, s.data) // want `s.wal.log while write lock s.mu is held`
}

// viaLogApply: the blessed seam is exempt at its call sites.
func (s *store) viaLogApply() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data["k"]++
	return s.logApply("inc", s.data)
}

// underReadLock is the PR 5 *fix*: marshalling under RLock admits
// concurrent readers and is explicitly allowed.
func (s *store) underReadLock() ([]byte, error) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return json.Marshal(s.data)
}

// afterUnlock: sequential Unlock releases; I/O after it is fine.
func (s *store) afterUnlock() ([]byte, error) {
	s.mu.Lock()
	snapshot := make(map[string]int, len(s.data))
	for k, v := range s.data {
		snapshot[k] = v
	}
	s.mu.Unlock()
	return json.Marshal(snapshot)
}

// encodeSnapshot streams an image to a file: direct I/O, so a one-hop I/O
// callee like writeFileAtomic.
func encodeSnapshot(path string, image map[string]int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewEncoder(f).Encode(image)
}

// checkpointUnderLock encodes the live state under the write lock. The
// checkpoint path is not a blessed seam: every reader and mutator of the
// partition would wait for the encoder and the disk.
func (s *store) checkpointUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return encodeSnapshot(path, s.data) // want `encodeSnapshot while write lock s.mu is held`
}

// checkpointCaptured is the checkpoint's shape: capture an image nothing
// live can reach under the lock, encode and write it after the unlock.
func (s *store) checkpointCaptured(path string) error {
	s.mu.Lock()
	image := make(map[string]int, len(s.data))
	for k, v := range s.data {
		image[k] = v
	}
	s.mu.Unlock()
	return encodeSnapshot(path, image)
}

// swapLog carries the justified suppression of the log swap seam.
func (s *store) swapLog(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.data) // want `json.Marshal while write lock s.mu is held`
	if err != nil {
		return err
	}
	//lint:iolocked log swap seam: no append may land between the tail copy and the rename
	return writeFileAtomic(path, b)
}
