// Package obs lets an operator look inside a running CDStore binary: an
// opt-in debug listener serving the standard library's profiles
// (net/http/pprof) and exported variables (expvar).
package obs

import (
	_ "expvar" // registers /debug/vars
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/
)

// ListenDebug serves /debug/pprof/ and /debug/vars on addr until the
// process exits, and returns the listener. An empty addr serves nothing
// and returns nil. The endpoints expose the command line and profiles of
// the process, so addr belongs on a loopback or operator-only interface.
func ListenDebug(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, nil) // the default mux, where both packages registered
	return ln, nil
}
