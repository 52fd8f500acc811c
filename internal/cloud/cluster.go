// Package cloud assembles multi-cloud CDStore deployments: n CDStore
// servers, each with its own index and storage backend, fronted by
// bandwidth-shaped network links that emulate the paper's LAN and
// commercial-cloud testbeds (§5.1). It also injects cloud outages for the
// fault-tolerance experiments.
package cloud

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/netsim"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// Cloud is one simulated cloud: a CDStore server VM plus a storage
// backend, reachable through a shaped link.
type Cloud struct {
	Index    int
	Server   *server.Server
	Backend  *storage.Faulty
	Profile  netsim.LinkProfile
	listener net.Listener
	addr     string
	// Server-side shared limiters: all clients contend for this cloud's
	// ingress/egress bandwidth.
	ingress *netsim.Limiter
	egress  *netsim.Limiter
}

// Addr returns the cloud server's listen address.
func (c *Cloud) Addr() string { return c.addr }

// Config describes a cluster.
type Config struct {
	// N and K are the dispersal parameters ((4,3) throughout the paper's
	// evaluation).
	N, K int
	// BaseDir holds per-cloud index directories and disk backends. Empty
	// means a fresh temporary directory with in-memory backends.
	BaseDir string
	// Profiles shapes each cloud's link (len N), or nil for unshaped.
	Profiles []netsim.LinkProfile
	// ContainerCapacity overrides the 4MB container cap (tests shrink it).
	ContainerCapacity int
	// DiskBackend stores containers on disk instead of memory.
	DiskBackend bool
}

// Cluster is a running multi-cloud deployment.
type Cluster struct {
	N, K   int
	Clouds []*Cloud
	cfg    Config
	dir    string
	ownDir bool
}

// NewCluster starts n servers, each listening on a loopback TCP port.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.K <= 0 || cfg.N <= cfg.K {
		return nil, fmt.Errorf("cloud: invalid (n,k)=(%d,%d)", cfg.N, cfg.K)
	}
	if cfg.Profiles != nil && len(cfg.Profiles) != cfg.N {
		return nil, fmt.Errorf("cloud: %d profiles for %d clouds", len(cfg.Profiles), cfg.N)
	}
	dir := cfg.BaseDir
	ownDir := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cdstore-cluster-")
		if err != nil {
			return nil, err
		}
		ownDir = true
	}
	cl := &Cluster{N: cfg.N, K: cfg.K, cfg: cfg, dir: dir, ownDir: ownDir}
	for i := 0; i < cfg.N; i++ {
		var backend storage.Backend
		if cfg.DiskBackend {
			ld, err := storage.NewLocalDir(cl.backendDir(i))
			if err != nil {
				cl.Close()
				return nil, err
			}
			backend = ld
		} else {
			backend = storage.NewMemory()
		}
		c, err := cl.startCloud(i, backend)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Clouds = append(cl.Clouds, c)
	}
	return cl, nil
}

func (cl *Cluster) indexDir(i int) string {
	return filepath.Join(cl.dir, fmt.Sprintf("cloud%d-index", i))
}

func (cl *Cluster) backendDir(i int) string {
	return filepath.Join(cl.dir, fmt.Sprintf("cloud%d-backend", i))
}

// startCloud brings up cloud i's server over backend, configured as the
// cluster is, and serves it on a fresh loopback port behind the cloud's
// shaped listener.
func (cl *Cluster) startCloud(i int, backend storage.Backend) (*Cloud, error) {
	faulty := storage.NewFaulty(backend)
	srv, err := server.New(server.Config{
		CloudIndex:        i,
		N:                 cl.N,
		K:                 cl.K,
		IndexDir:          cl.indexDir(i),
		Backend:           faulty,
		ContainerCapacity: cl.cfg.ContainerCapacity,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	c := &Cloud{Index: i, Server: srv, Backend: faulty, addr: ln.Addr().String()}
	if cl.cfg.Profiles != nil {
		c.Profile = cl.cfg.Profiles[i]
		c.ingress = netsim.NewLimiter(c.Profile.UploadBps)
		c.egress = netsim.NewLimiter(c.Profile.DownloadBps)
	}
	c.listener = &shapedListener{Listener: ln, cloud: c}
	go c.Server.Serve(c.listener)
	return c, nil
}

// shapedListener applies the cloud's shared limiters to accepted
// connections: uploads from every client contend for the same ingress
// bandwidth, as on a real cloud path.
type shapedListener struct {
	net.Listener
	cloud *Cloud
}

func (l *shapedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := l.cloud
	if c.ingress == nil && c.egress == nil {
		return conn, nil
	}
	// Server-side: reads are client uploads (ingress), writes are client
	// downloads (egress).
	return netsim.Shape(conn, c.egress, c.ingress, 0), nil
}

// ClientNIC describes the client machine's own network interface; on the
// LAN testbed it is the 1Gb/s NIC that bounds a single client (§5.5).
type ClientNIC struct {
	UploadBps   float64
	DownloadBps float64
}

// LANClientNIC returns the 1Gb/s (≈110MB/s effective) client NIC.
func LANClientNIC() *ClientNIC {
	return &ClientNIC{UploadBps: netsim.MBps(110), DownloadBps: netsim.MBps(110)}
}

// Dialers returns one Dialer per cloud for a new client. If nic is
// non-nil, a per-client limiter pair is shared across that client's n
// connections, modelling the client machine's NIC.
func (cl *Cluster) Dialers(nic *ClientNIC) []client.Dialer {
	var upLim, downLim *netsim.Limiter
	if nic != nil {
		upLim = netsim.NewLimiter(nic.UploadBps)
		downLim = netsim.NewLimiter(nic.DownloadBps)
	}
	dialers := make([]client.Dialer, cl.N)
	for i := range dialers {
		c := cl.Clouds[i]
		dialers[i] = func() (net.Conn, error) {
			if c.Backend.Down() {
				return nil, fmt.Errorf("cloud %d is down", c.Index)
			}
			conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			var lat time.Duration
			if c.Profile.RTT > 0 {
				lat = c.Profile.RTT / 2
			}
			return netsim.Shape(conn, upLim, downLim, lat), nil
		}
	}
	return dialers
}

// Connect builds a connected client with the given user ID and encode
// thread count over optionally NIC-shaped links.
func (cl *Cluster) Connect(userID uint64, threads int, nic *ClientNIC) (*client.Client, error) {
	return client.Connect(client.Options{
		UserID:        userID,
		N:             cl.N,
		K:             cl.K,
		EncodeThreads: threads,
	}, cl.Dialers(nic))
}

// ReplaceCloud tears cloud i down — server, index, and backend contents
// are all lost, modelling a provider exit (§1's vendor lock-in concern) —
// and brings up a fresh empty server at the same cloud index, configured
// as the rest of the cluster except that its backend is in memory.
// Clients must reconnect and run Repair to rebuild the lost shares.
func (cl *Cluster) ReplaceCloud(i int) error {
	old := cl.Clouds[i]
	if old.listener != nil {
		old.listener.Close()
	}
	if old.Server != nil {
		if err := old.Server.Close(); err != nil {
			return err
		}
	}
	os.RemoveAll(cl.indexDir(i))
	os.RemoveAll(cl.backendDir(i))
	c, err := cl.startCloud(i, storage.NewMemory())
	if err != nil {
		return err
	}
	cl.Clouds[i] = c
	return nil
}

// FailCloud injects an outage: the backend errors and new connections are
// refused.
func (cl *Cluster) FailCloud(i int) { cl.Clouds[i].Backend.Fail() }

// RecoverCloud ends the outage.
func (cl *Cluster) RecoverCloud(i int) { cl.Clouds[i].Backend.Recover() }

// Close shuts every server down.
func (cl *Cluster) Close() error {
	var firstErr error
	for _, c := range cl.Clouds {
		if c.listener != nil {
			c.listener.Close()
		}
		if c.Server != nil {
			if err := c.Server.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if cl.ownDir {
		os.RemoveAll(cl.dir)
	}
	return firstErr
}
