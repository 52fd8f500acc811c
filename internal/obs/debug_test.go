package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestDebugListenerServesPprofAndExpvar: the listener answers the pprof
// command-line endpoint with this process's arguments and /debug/vars
// with expvar's JSON, and an empty address listens on nothing.
func TestDebugListenerServesPprofAndExpvar(t *testing.T) {
	if ln, err := ListenDebug(""); ln != nil || err != nil {
		t.Fatalf("ListenDebug(\"\") = %v, %v; want nothing", ln, err)
	}
	ln, err := ListenDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	if cmdline := get("/debug/pprof/cmdline"); !strings.HasPrefix(cmdline, os.Args[0]) {
		t.Errorf("/debug/pprof/cmdline = %q, want this test binary's command line", cmdline)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, name := range []string{"cmdline", "memstats"} {
		if _, ok := vars[name]; !ok {
			t.Errorf("/debug/vars lacks %q", name)
		}
	}
}
