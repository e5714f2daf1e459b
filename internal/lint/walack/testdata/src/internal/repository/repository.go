// Package repository is the walack fixture: mutation methods that
// acknowledge success with and without a preceding WAL append, plus the
// idioms the analyzer must accept.
package repository

import "errors"

type shard struct {
	wal      *walWriter
	projects map[int]string
}

type walWriter struct{ frames [][]byte }

func (w *walWriter) log(op string, rec []byte) error {
	w.frames = append(w.frames, rec)
	return nil
}

// logApply is the WAL seam: append+fsync, then apply in memory.
func (sh *shard) logApply(op string, payload []byte) error {
	return sh.wal.log(op, payload)
}

// goodMutate is the canonical shape: append first (in the if init), then
// acknowledge.
func (sh *shard) goodMutate(id int, name string) error {
	if err := sh.logApply("set", []byte(name)); err != nil {
		return err
	}
	sh.projects[id] = name
	return nil
}

// tailMutate returns the append's error directly: the append is the ack.
func (sh *shard) tailMutate(id int, name string) error {
	sh.projects[id] = name
	return sh.logApply("set", []byte(name))
}

// earlyAck mutates in memory and acknowledges before the append ever
// runs — the crash-erases-an-acked-mutation bug.
func (sh *shard) earlyAck(id int, name string) error {
	if _, ok := sh.projects[id]; ok {
		sh.projects[id] = name
		return nil // want `success return before WAL append`
	}
	return sh.logApply("set", []byte(name))
}

// multiResult: the nil in error position is what acknowledges.
func (sh *shard) multiResult(id int) (string, error) {
	if name, ok := sh.projects[id]; ok {
		return name, nil // want `success return before WAL append`
	}
	if err := sh.logApply("touch", nil); err != nil {
		return "", err
	}
	return sh.projects[id], nil
}

// branchNoLeak: an append inside one branch must not bless the join
// point — the other branch never appended.
func (sh *shard) branchNoLeak(id int, durable bool) error {
	if durable {
		if err := sh.logApply("set", nil); err != nil {
			return err
		}
	}
	sh.projects[id] = "x"
	return nil // want `success return before WAL append`
}

// errReturn: returning a non-nil error is not an ack.
func (sh *shard) errReturn(id int) error {
	if sh.projects == nil {
		return errors.New("no projects")
	}
	return sh.logApply("touch", nil)
}

// noSeam functions (no logApply anywhere) are not mutation paths and are
// never examined.
func (sh *shard) lookup(id int) (string, error) {
	return sh.projects[id], nil
}

// deliberateAck documents a path that mutates nothing durable.
func (sh *shard) deliberateAck(batch []int) error {
	if len(batch) == 0 {
		//lint:acked empty batch: nothing was assigned, so there is nothing a crash could erase
		return nil
	}
	return sh.logApply("lease", nil)
}
