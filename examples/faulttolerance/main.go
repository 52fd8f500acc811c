// Fault tolerance scenario: back up to four clouds, lose one cloud
// entirely (provider exit), restore from the surviving three, then
// repair the lost shares onto a replacement and survive a second,
// different outage — the §3.1 reliability story end to end.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"cdstore"
)

func main() {
	cluster, err := cdstore.NewCluster(cdstore.ClusterConfig{N: 4, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(99)).Read(data)

	// Backup while all four clouds are healthy.
	client, err := cluster.Connect(1, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Backup("/critical.tar", bytes.NewReader(data)); err != nil {
		log.Fatal(err)
	}
	client.Close()
	fmt.Println("backed up /critical.tar across 4 clouds (any 3 recover it)")

	// Disaster: cloud 2's provider shuts down; all its data is gone.
	if err := cluster.ReplaceCloud(2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cloud 2 lost and replaced with an empty server")

	// Restore still works from the three survivors.
	client, err = cluster.Connect(1, nil)
	if err != nil {
		log.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := client.Restore("/critical.tar", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restore with 3 of 4 clouds: %d bytes, intact: %v\n",
		out.Len(), bytes.Equal(out.Bytes(), data))

	// Repair: decode and verify each secret's package from the survivors,
	// compute cloud 2's share of it with one Reed-Solomon row, and upload
	// that to the replacement (§3.1: "reconstructs original secrets and
	// then rebuilds the lost shares as in Reed-Solomon codes").
	rstats, err := client.Repair("/critical.tar", 2)
	if err != nil {
		log.Fatal(err)
	}
	client.Close()
	fmt.Printf("repaired cloud 2: %d shares rebuilt (%d bytes re-uploaded)\n",
		rstats.SharesRebuilt, rstats.BytesReuploads)

	// Now a different cloud fails — the repaired cloud must carry its
	// weight for the system to still deliver the data.
	cluster.FailCloud(0)
	fmt.Println("cloud 0 now unavailable")
	client, err = cluster.Connect(1, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	out.Reset()
	if _, err := client.Restore("/critical.tar", &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restore using repaired cloud 2 + clouds 1,3: %d bytes, intact: %v\n",
		out.Len(), bytes.Equal(out.Bytes(), data))
}
