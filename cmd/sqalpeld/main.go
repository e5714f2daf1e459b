// Command sqalpeld runs the sqalpel platform server: the web application
// that manages users, catalogs, performance projects, query pools, the task
// queue and the result analytics. State lives in a sharded, write-ahead-
// logged store in the data directory: every mutation is fsynced to its
// shard's log before the request returns, so a crash — even kill -9 — loses
// no acknowledged measurement, and restart recovers from snapshot plus log
// replay. A data directory written by an older, single-JSON-file version is
// migrated transparently on first start.
//
// Usage:
//
//	sqalpeld -addr :8080 -data ./sqalpel-data -shards 8
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqalpel/internal/repository"
	"sqalpel/internal/server"
)

// The read bounds of every connection. WriteTimeout stays unset: the
// results, history and pool pages stream, and a long page to a slow reader
// must not be cut off.
const (
	// readHeaderTimeout bounds the request line and headers, a few hundred
	// bytes that any client sends at once; a client that stalls inside them
	// holds a connection and a goroutine for nothing.
	readHeaderTimeout = 10 * time.Second
	// readTimeout bounds the whole request, body included. It must admit the
	// largest body the server accepts — a 64 MiB completion report — from a
	// slow driver: five minutes is 64 MiB at about 220 KB/s.
	readTimeout = 5 * time.Minute
	// idleTimeout bounds a keep-alive connection between requests. A driver
	// measures between its lease and its report, which can take longer; a
	// closed connection only costs it a new dial.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer is the platform's HTTP server with its read bounds.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "sqalpel-data", "data directory (write-ahead logs + snapshots)")
	shards := flag.Int("shards", repository.DefaultShards, "store shard count; changing it between runs is safe")
	taskTimeout := flag.Duration("task-timeout", 10*time.Minute, "requeue tasks whose results were not delivered within this interval")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "interval between checkpoints (snapshot + log compaction)")
	flag.Parse()

	store, err := repository.Open(*dataDir, *shards)
	if err != nil {
		log.Fatalf("opening store in %s: %v", *dataDir, err)
	}
	store.TaskTimeout = *taskTimeout
	srv := server.New(server.Options{Store: store})

	httpServer := newHTTPServer(*addr, srv)

	// Periodic maintenance: expire stuck tasks and checkpoint the store.
	// Durability does not depend on the checkpoint — the logs already hold
	// every acknowledged mutation — it only bounds recovery replay time.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(*checkpointEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if n := store.ExpireTasks(); n > 0 {
					log.Printf("requeued %d stuck tasks", n)
				}
				if err := store.Checkpoint(); err != nil {
					log.Printf("checkpoint failed: %v", err)
				}
			case <-stop:
				return
			}
		}
	}()

	// Graceful shutdown on SIGINT/SIGTERM.
	go func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		<-sigs
		close(stop)
		if err := store.Checkpoint(); err != nil {
			log.Printf("final checkpoint failed: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
		_ = httpServer.Close()
	}()

	fmt.Printf("sqalpel platform listening on %s (data in %s, %d shards)\n", *addr, *dataDir, *shards)
	if err := httpServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
