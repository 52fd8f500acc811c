// Quickstart: convergent dispersal on its own, then a full in-process
// four-cloud CDStore deployment doing backup and restore.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"cdstore"
)

func main() {
	// --- Part 1: CAONT-RS by hand -------------------------------------
	// Disperse one secret into n=4 shares; any k=3 reconstruct it.
	scheme, err := cdstore.NewCAONTRS(4, 3)
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("attack at dawn — keep this between us and any 3 of 4 clouds")
	shares, err := scheme.Split(secret)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secret (%d bytes) -> %d shares of %d bytes (blowup %.3f)\n",
		len(secret), len(shares), len(shares[0]), cdstore.StorageBlowup(scheme, len(secret)))

	// Reconstruct from shares {0, 2, 3} — cloud 1 is unavailable.
	got, err := scheme.Combine(map[int][]byte{0: shares[0], 2: shares[2], 3: shares[3]}, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstructed from 3 of 4 shares: %q\n", got)

	// Convergence: a second user dispersing the same content produces
	// the *same* shares — that is what makes deduplication possible.
	scheme2, _ := cdstore.NewCAONTRS(4, 3)
	shares2, _ := scheme2.Split(secret)
	fmt.Printf("identical content -> identical shares: %v\n", bytes.Equal(shares[0], shares2[0]))

	// --- Part 2: a four-cloud deployment ------------------------------
	cluster, err := cdstore.NewCluster(cdstore.ClusterConfig{N: 4, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := cluster.Connect(1 /* user */, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Back up 4MB of data.
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(42)).Read(data)
	stats, err := client.Backup("/backups/monday.tar", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backup: %d bytes -> %d secrets, %d share bytes transferred\n",
		stats.LogicalBytes, stats.Secrets, stats.TransferredShareBytes)

	// Back up the same data again: intra-user dedup sends nothing.
	stats2, err := client.Backup("/backups/tuesday.tar", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-backup: %d share bytes transferred (intra-user saving %.1f%%)\n",
		stats2.TransferredShareBytes, 100*stats2.IntraUserSaving())

	// Restore and verify.
	var out bytes.Buffer
	if _, err := client.Restore("/backups/monday.tar", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restore: %d bytes, intact: %v\n", out.Len(), bytes.Equal(out.Bytes(), data))
}
