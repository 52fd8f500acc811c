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
	"expvar"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	"cdstore/internal/obs"
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
		debug       = flag.String("debug", "", "listen address for the pprof and expvar endpoints under /debug/ (empty: none)")
	)
	flag.Parse()
	if _, err := obs.ListenDebug(*debug); err != nil {
		log.Fatalf("debug listener: %v", err)
	}

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
	// The cloud's counters, the maintenance pass's among them: no reply
	// carries them, so an operator reads them here, on -debug's /debug/vars.
	expvar.Publish("server", expvar.Func(func() any { return srv.Stats() }))
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("cdstore-server cloud=%d (n=%d,k=%d) listening on %s, data in %s",
		*cloud, *n, *k, ln.Addr(), *dir)

	// Close flushes container buffers and the index; shutdown runs it
	// once, on a signal or after Serve failed, and every caller waits for
	// it and gets its error.
	shutdown := sync.OnceValue(srv.Close)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		shutdown()
	}()
	// Serve returns nil only once Close has shut the listener, and an
	// error otherwise (a full descriptor table is waited out, not
	// returned). Either way flush before exiting: a flush that failed lost
	// acknowledged data, so say so in the exit status.
	serveErr := srv.Serve(ln)
	flushErr := shutdown()
	if serveErr != nil {
		if flushErr != nil {
			log.Printf("shutdown flush: %v", flushErr)
		}
		log.Fatalf("serve: %v", serveErr)
	}
	if flushErr != nil {
		log.Fatalf("shutdown flush: %v", flushErr)
	}
}
