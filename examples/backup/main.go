// Backup scenario: an organization of several users takes weekly backups
// of evolving datasets to four clouds. Demonstrates both stages of
// deduplication (§3.3) with per-week savings, mirroring Figure 6's
// methodology on a live (not simulated) deployment.
package main

import (
	"fmt"
	"log"

	"cdstore"
	"cdstore/internal/workload"
)

func main() {
	const (
		users  = 3
		weeks  = 4
		chunks = 600 // chunks per user's dataset (~5MB at 8KB average)
	)
	cluster, err := cdstore.NewCluster(cdstore.ClusterConfig{N: 4, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// An FSL-like trace: each user's data evolves a few percent per
	// week, with a little cross-user overlap.
	trace := workload.GenerateFSL(workload.FSLConfig{
		Users: users, Weeks: weeks, ChunksPerUser: chunks, Seed: 7,
	})

	fmt.Printf("%-5s %-5s %-12s %-14s %-16s %-14s\n",
		"week", "user", "logical(KB)", "sent(KB)", "intra-saving", "stored-new(KB)")
	var prevStored uint64
	for w := 0; w < weeks; w++ {
		for u := 0; u < users; u++ {
			client, err := cluster.Connect(uint64(u+1), nil)
			if err != nil {
				log.Fatal(err)
			}
			b := trace[w][u]
			path := fmt.Sprintf("/u%d/week%d.tar", u, w)
			// Trace-driven: each trace chunk is a secret (§5.5).
			stats, err := client.BackupStream(path, workload.NewChunkIter(b))
			if err != nil {
				log.Fatal(err)
			}
			client.Close()

			var stored uint64
			for _, c := range cluster.Clouds {
				stored += c.Server.Stats().BytesStored
			}
			fmt.Printf("%-5d %-5d %-12d %-14d %-15.1f%% %-14d\n",
				w+1, u+1, stats.LogicalBytes/1024, stats.TransferredShareBytes/1024,
				100*stats.IntraUserSaving(), (stored-prevStored)/1024)
			prevStored = stored
		}
	}

	// Final accounting across the whole deployment.
	var received, stored uint64
	for _, c := range cluster.Clouds {
		s := c.Server.Stats()
		received += s.BytesReceived
		stored += s.BytesStored
	}
	fmt.Printf("\ntotals: received %d KB after intra-user dedup, stored %d KB after inter-user dedup\n",
		received/1024, stored/1024)
	fmt.Printf("inter-user dedup saving: %.1f%%\n", 100*(1-float64(stored)/float64(received)))

	// Every user's latest backup restores correctly.
	for u := 0; u < users; u++ {
		client, err := cluster.Connect(uint64(u+1), nil)
		if err != nil {
			log.Fatal(err)
		}
		path := fmt.Sprintf("/u%d/week%d.tar", u, weeks-1)
		var sink countWriter
		if _, err := client.Restore(path, &sink); err != nil {
			log.Fatalf("restore %s: %v", path, err)
		}
		client.Close()
		fmt.Printf("user %d restored %s: %d bytes\n", u+1, path, sink)
	}
}

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
