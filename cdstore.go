// Package cdstore is a Go implementation of CDStore (Li, Qin, Lee —
// USENIX ATC 2015): reliable, secure, and cost-efficient multi-cloud
// backup storage built on convergent dispersal and two-stage
// deduplication.
//
// The package is a facade over the implementation packages:
//
//   - CAONT-RS, the convergent dispersal scheme every Client runs, and the
//     schemes the paper compares it against: CAONT-RS-Rivest and the
//     baseline secret-sharing family (SSSS, IDA, RSSS, SSMS, AONT-RS), all
//     satisfying the Scheme interface. The baselines come from the paper's
//     experiment package and are here for cdbench-style comparisons; no
//     client or server uses them.
//   - Client and Server: the CDStore client (chunking, convergent
//     encoding, intra-user dedup, parallel upload, k-of-n restore,
//     repair) and the per-cloud CDStore server (inter-user dedup,
//     LSM-backed indices, 4MB containers).
//   - Cluster: an in-process multi-cloud deployment with optional
//     bandwidth shaping (LAN and commercial-cloud profiles) and fault
//     injection, for tests, examples, and experiments.
//   - Cost analysis reproducing the paper's §5.6 model.
//
// Quick start:
//
//	cluster, _ := cdstore.NewCluster(cdstore.ClusterConfig{N: 4, K: 3})
//	defer cluster.Close()
//	c, _ := cluster.Connect(1, nil)
//	defer c.Close()
//	c.Backup("/backups/monday.tar", file)
//	c.Restore("/backups/monday.tar", out)
package cdstore

import (
	"cdstore/internal/bench"
	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/core"
	"cdstore/internal/cost"
	"cdstore/internal/metadata"
	"cdstore/internal/secretshare"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// Scheme is an (n, k, r) secret sharing algorithm: Split disperses a
// secret into n shares, any k of which Combine back; no information
// leaks from r or fewer shares.
type Scheme = bench.Scheme

// Convergent dispersal schemes (the paper's contribution, §3.2) and the
// baseline secret sharing algorithms (§2, Table 1).
var (
	// NewCAONTRS builds the paper's CAONT-RS: OAEP-based convergent AONT
	// + systematic Reed-Solomon. Deterministic, deduplicable.
	NewCAONTRS = core.NewCAONTRS
	// NewCAONTRSWithSalt adds an organization-wide salt to the
	// convergent hash.
	NewCAONTRSWithSalt = core.NewCAONTRSWithSalt
	// NewCAONTRSRivest builds the prior HotStorage '14 instantiation
	// (Rivest AONT with a content hash key).
	NewCAONTRSRivest = bench.NewCAONTRSRivest
	// NewSSSS builds Shamir's secret sharing.
	NewSSSS = bench.NewSSSS
	// NewIDA builds Rabin's information dispersal algorithm.
	NewIDA = bench.NewIDA
	// NewRSSS builds a ramp secret sharing scheme.
	NewRSSS = bench.NewRSSS
	// NewSSMS builds Krawczyk's secret sharing made short.
	NewSSMS = bench.NewSSMS
	// NewAONTRS builds Resch-Plank AONT-RS (random key; no dedup).
	NewAONTRS = bench.NewAONTRS
)

// StorageBlowup returns total share bytes / secret bytes for a scheme
// (Table 1's storage metric).
func StorageBlowup(s Scheme, secretSize int) float64 {
	return bench.StorageBlowup(s, secretSize)
}

// ErrCorrupt is returned by Combine when a reconstructed secret fails
// its integrity check; clients retry other k-subsets of shares.
var ErrCorrupt = secretshare.ErrCorrupt

// Fingerprint identifies a share or chunk by its SHA-256.
type Fingerprint = metadata.Fingerprint

// FingerprintOf hashes data.
func FingerprintOf(data []byte) Fingerprint { return metadata.FingerprintOf(data) }

// Client is a CDStore client bound to n cloud connections. See Backup,
// Restore, Repair, ListFiles, and Delete.
type Client = client.Client

// ClientOptions configures Connect.
type ClientOptions = client.Options

// Dialer opens a connection to one cloud's CDStore server.
type Dialer = client.Dialer

// BackupStats reports volumes moved and saved by one backup.
type BackupStats = client.BackupStats

// RestoreStats reports a restore.
type RestoreStats = client.RestoreStats

// Connect dials the n clouds and returns a ready client.
func Connect(opts ClientOptions, dialers []Dialer) (*Client, error) {
	return client.Connect(opts, dialers)
}

// Server is one per-cloud CDStore server.
type Server = server.Server

// ServerConfig configures NewServer.
type ServerConfig = server.Config

// ServerStats are the server's cumulative dedup counters.
type ServerStats = server.Stats

// NewServer opens a server over an index directory and storage backend.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Backend is the object-storage abstraction servers write containers to.
type Backend = storage.Backend

// NewMemoryBackend returns an in-memory backend (tests, simulations).
func NewMemoryBackend() *storage.Memory { return storage.NewMemory() }

// NewLocalDirBackend returns a directory-backed backend.
func NewLocalDirBackend(dir string) (*storage.LocalDir, error) { return storage.NewLocalDir(dir) }

// Cluster is an in-process multi-cloud deployment.
type Cluster = cloud.Cluster

// ClusterConfig configures NewCluster.
type ClusterConfig = cloud.Config

// ClientNIC models the client machine's own link for shaped testbeds.
type ClientNIC = cloud.ClientNIC

// NewCluster starts n in-process CDStore servers on loopback TCP.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cloud.NewCluster(cfg) }

// LANClientNIC returns the paper's 1Gb/s client NIC profile.
func LANClientNIC() *ClientNIC { return cloud.LANClientNIC() }

// LinkProfile describes one shaped cloud link.
type LinkProfile = cloud.LinkProfile

// LANProfile returns the 1Gb/s LAN link profile (§5.1(ii)).
func LANProfile() LinkProfile { return cloud.LANProfile() }

// CloudProfiles returns the four commercial-cloud profiles of Table 2.
func CloudProfiles() []LinkProfile { return cloud.CloudProfiles() }

// CostParams parameterizes the §5.6 cost model.
type CostParams = cost.Params

// CostResult is the monthly cost comparison.
type CostResult = cost.Result

// AnalyzeCost runs the cost model for one parameter point.
func AnalyzeCost(p CostParams) (CostResult, error) { return cost.Analyze(p) }

// CostTB is one terabyte in the cost model's GB units.
const CostTB = cost.TB
