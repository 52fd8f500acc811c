// Command cdstore-server runs one per-cloud CDStore server: it accepts
// CDStore client connections, performs inter-user deduplication, and
// stores share/recipe containers in a directory-backed storage backend
// (standing in for the cloud object store reachable over the free
// intra-cloud link, §3.1).
//
// A four-cloud deployment runs four of these, one per cloud index:
//
//	cdstore-server -cloud 0 -listen :9000 -dir /var/cdstore/cloud0 &
//	cdstore-server -cloud 1 -listen :9001 -dir /var/cdstore/cloud1 &
//	cdstore-server -cloud 2 -listen :9002 -dir /var/cdstore/cloud2 &
//	cdstore-server -cloud 3 -listen :9003 -dir /var/cdstore/cloud3 &
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"cdstore/internal/server"
	"cdstore/internal/storage"
)

func main() {
	var (
		listen      = flag.String("listen", ":9000", "address to listen on")
		cloud       = flag.Int("cloud", 0, "cloud index (0..n-1)")
		n           = flag.Int("n", 4, "total number of clouds")
		k           = flag.Int("k", 3, "reconstruction threshold")
		dir         = flag.String("dir", "cdstore-data", "data directory (index + containers)")
		scrubEvery  = flag.Duration("scrub-interval", 0, "background maintenance pass cadence: integrity scrub plus reclaim of deleted backups (0 disables the loop; explicit passes via the protocol still work)")
		scrubBudget = flag.Int64("scrub-budget", 0, "scrub scan I/O budget in bytes/sec (0 = unthrottled)")
	)
	flag.Parse()

	backend, err := storage.NewLocalDir(filepath.Join(*dir, "containers"))
	if err != nil {
		log.Fatalf("opening backend: %v", err)
	}
	srv, err := server.New(server.Config{
		CloudIndex:             *cloud,
		N:                      *n,
		K:                      *k,
		IndexDir:               filepath.Join(*dir, "index"),
		Backend:                backend,
		ScrubInterval:          *scrubEvery,
		ScrubBudgetBytesPerSec: *scrubBudget,
	})
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("cdstore-server cloud=%d (n=%d,k=%d) listening on %s, data in %s",
		*cloud, *n, *k, ln.Addr(), *dir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sig
		log.Printf("shutting down")
		srv.Close()
		close(closed)
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	// Serve returns nil only once Close (called above, nowhere else) has
	// shut the listener; wait for that Close to finish flushing.
	<-closed
}
