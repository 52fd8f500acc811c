// Command cdstore-gateway runs the session-multiplexing proxy tier in
// front of a CDStore deployment: one listener per cloud, each funneling
// its many downstream client sessions over a small pool of persistent
// multiplexed connections to that cloud's server. Deploy it where
// thousands of logical sessions would otherwise each pay a TCP + Hello
// + buffer setup on the servers.
//
// A four-cloud deployment fronted by one gateway process:
//
//	cdstore-gateway \
//	  -listen :9100,:9101,:9102,:9103 \
//	  -upstream host0:9000,host1:9001,host2:9002,host3:9003 \
//	  -conns 4
//
// Clients then dial :9100..:9103 as if they were the servers — the
// relay is protocol-transparent.
package main

import (
	"expvar"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"cdstore/internal/gateway"
	"cdstore/internal/obs"
)

func main() {
	var (
		listen   = flag.String("listen", ":9100", "comma-separated downstream listen addresses, one per cloud")
		upstream = flag.String("upstream", "127.0.0.1:9000", "comma-separated server addresses, one per cloud (aligned with -listen)")
		conns    = flag.Int("conns", 4, "pooled upstream connections per cloud")
		debug    = flag.String("debug", "", "listen address for the pprof and expvar endpoints under /debug/ (empty: none)")
	)
	flag.Parse()
	if _, err := obs.ListenDebug(*debug); err != nil {
		log.Fatalf("debug listener: %v", err)
	}

	listens := strings.Split(*listen, ",")
	upstreams := strings.Split(*upstream, ",")
	if len(listens) != len(upstreams) {
		log.Fatalf("-listen has %d addresses but -upstream has %d; they pair up per cloud", len(listens), len(upstreams))
	}

	gws := make([]*gateway.Gateway, len(listens))
	errc := make(chan error, len(listens))
	for i := range listens {
		addr := upstreams[i]
		gw, err := gateway.New(gateway.Config{
			Dial:          func() (net.Conn, error) { return net.Dial("tcp", addr) },
			UpstreamConns: *conns,
		})
		if err != nil {
			log.Fatalf("cloud %d: %v", i, err)
		}
		gws[i] = gw
		ln, err := net.Listen("tcp", listens[i])
		if err != nil {
			log.Fatalf("listening on %s: %v", listens[i], err)
		}
		log.Printf("cdstore-gateway cloud %d: %s -> %s (%d pooled conns)", i, ln.Addr(), addr, *conns)
		go func() { errc <- gw.Serve(ln) }()
	}

	// Each cloud's gateway counters, by cloud index, on -debug's /debug/vars.
	expvar.Publish("gateway", expvar.Func(func() any {
		stats := make([]gateway.Stats, len(gws))
		for i, gw := range gws {
			stats[i] = gw.Stats()
		}
		return stats
	}))

	// A failed Serve closes every gateway too, ending their sessions
	// before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var err error
	select {
	case <-sig:
		log.Printf("shutting down")
	case err = <-errc:
	}
	for _, gw := range gws {
		gw.Close()
	}
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
}
