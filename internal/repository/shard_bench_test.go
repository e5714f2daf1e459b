package repository

import (
	"fmt"
	"testing"
)

// BenchmarkRepositoryShards measures the lease+complete hot path of the
// durable store under 8 concurrent drivers, each draining its own project,
// for growing shard counts. Projects map to shards by id, so with one shard
// every driver contends on a single partition lock and a single WAL; with
// eight shards the drivers never share either. Sinks skip fsync so the
// benchmark isolates the locking and logging overhead rather than the disk
// (a production store pays one fsync per record on top, identical across
// shard counts). One op is one completed measurement, i.e. two WAL records
// plus its share of a batched lease.
func BenchmarkRepositoryShards(b *testing.B) {
	const drivers = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/drivers=%d", shards, drivers), func(b *testing.B) {
			dir := b.TempDir()
			s, err := open(dir, shards, quietLogf, nosyncFactory)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
				b.Fatal(err)
			}
			perDriver := (b.N + drivers - 1) / drivers
			type lane struct {
				expID int
				key   string
			}
			lanes := make([]lane, drivers)
			for i := range lanes {
				p, err := s.CreateProject("martin", fmt.Sprintf("bench-%d", i), "", true)
				if err != nil {
					b.Fatal(err)
				}
				e, err := s.AddExperiment("martin", p.ID, "exp", "SELECT 1", "")
				if err != nil {
					b.Fatal(err)
				}
				qs := make([]QueryRecord, perDriver)
				for q := range qs {
					qs[q] = QueryRecord{ID: q + 1, SQL: "SELECT 1"}
				}
				if err := s.ReplaceQueries("martin", p.ID, e.ID, qs); err != nil {
					b.Fatal(err)
				}
				lanes[i] = lane{e.ID, p.Contributors[0].Key}
			}
			b.ResetTimer()
			done := make(chan error, drivers)
			for i := range lanes {
				go func(ln lane) {
					completed := 0
					for completed < perDriver {
						tasks, err := s.RequestTasks(ln.key, ln.expID, "columba-1.0", "laptop", 32)
						if err != nil {
							done <- err
							return
						}
						if len(tasks) == 0 {
							break
						}
						for _, task := range tasks {
							if _, err := s.CompleteTaskTraced(task.ID, ln.key, []float64{0.1}, "", nil, nil); err != nil {
								done <- err
								return
							}
							completed++
						}
					}
					done <- nil
				}(lanes[i])
			}
			for range lanes {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
