// Command cdstore-client backs up and restores files against a multi-
// cloud CDStore deployment.
//
// Usage:
//
//	cdstore-client -servers host:9000,host:9001,host:9002,host:9003 -user 1 \
//	    backup  <remote-path> <local-file>
//	    restore <remote-path> <local-file> [<remote-path> <local-file> ...]
//	    list
//	    delete  <remote-path>
//	    repair  <remote-path> <cloud-index>
//	    scrub   status <cloud-index> | run <cloud-index> | heal
//
// "restore" with several pairs restores them in one session, which
// fetches and decodes each distinct secret once however many of the
// backups reference it (at most 32 MiB of decoded secrets are kept; the
// rows a running restore has still to read are pinned, and the least
// recently used of the others go first).
//
// "scrub status" prints one cloud's damage inventory — its counters, and
// the files of this user it affects — "scrub run" drives a synchronous
// pass there (integrity check, quarantine, and the reclaim of what deleted
// backups left), and "scrub heal" runs one heal round: every cloud runs a
// pass and is polled, and this user's affected files are repaired to
// full (n,k) health. Run "scrub heal" periodically (from cron, say) to
// keep a deployment healed: it exits non-zero when a repair failed, while
// busy and unreachable clouds are counted, not fatal.
//
// SIGINT or SIGTERM stops the running command: the sessions are closed,
// a restore's partly written output is removed, and the client exits 130
// after printing "interrupted". A restore that fails removes its output
// too.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/obs"
)

func main() {
	var (
		servers = flag.String("servers", "", "comma-separated server addresses, one per cloud (cloud i = i-th)")
		user    = flag.Uint64("user", 1, "user identifier")
		k       = flag.Int("k", 3, "reconstruction threshold")
		threads = flag.Int("threads", 2, "encoding threads")
		salt    = flag.String("salt", "", "organization salt for the convergent hash (optional)")
		debug   = flag.String("debug", "", "listen address for the pprof and expvar endpoints under /debug/ (empty: none)")
	)
	flag.Parse()
	addrs := strings.Split(*servers, ",")
	if *servers == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: cdstore-client -servers a,b,c,d [-user N] <backup|restore|list|delete|repair|scrub> ...")
		os.Exit(2)
	}
	if _, err := obs.ListenDebug(*debug); err != nil {
		log.Fatalf("debug listener: %v", err)
	}
	n := len(addrs)
	dialers := make([]client.Dialer, n)
	for i, addr := range addrs {
		addr := addr
		dialers[i] = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	var saltBytes []byte
	if *salt != "" {
		saltBytes = []byte(*salt)
	}
	c, err := client.Connect(client.Options{
		UserID:        *user,
		N:             n,
		K:             *k,
		EncodeThreads: *threads,
		Salt:          saltBytes,
	}, dialers)
	if err != nil {
		log.Fatalf("connecting: %v", err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// The one exit path after Connect: the sessions are closed (Bye) before
	// a failure is reported.
	err = runUntil(c, flag.Args(), sig)
	c.Close()
	if errors.Is(err, errInterrupted) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(130) // 128 + SIGINT, as a shell reports a command it interrupted
	}
	if err != nil {
		log.Fatal(err)
	}
}

// errInterrupted is what a command stopped by a signal returns.
var errInterrupted = errors.New("interrupted")

// runUntil runs one command and stops it at the first signal on sig: the
// client's sessions are closed, which fails the command's next call to
// any cloud, and once the command has unwound — a restore removing the
// file it was writing — errInterrupted is returned. A second signal gets
// its default action and ends the process at once.
func runUntil(c *client.Client, args []string, sig chan os.Signal) error {
	done := make(chan error, 1)
	go func() { done <- run(c, args) }()
	select {
	case err := <-done:
		return err
	case <-sig:
		signal.Stop(sig)
		c.Close()
		<-done
		return errInterrupted
	}
}

// restoreTo restores one backup into a local file. A restore that fails
// removes the file, so no partial output is left behind.
func restoreTo(c *client.Client, remote, local string) (*client.RestoreStats, error) {
	f, err := os.Create(local)
	if err != nil {
		return nil, err
	}
	stats, err := c.Restore(remote, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(local)
		return nil, err
	}
	return stats, nil
}

// run executes one command on a connected client.
func run(c *client.Client, args []string) error {
	switch args[0] {
	case "backup":
		if len(args) != 3 {
			return errors.New("usage: backup <remote-path> <local-file>")
		}
		f, err := os.Open(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		start := time.Now()
		stats, err := c.Backup(args[1], f)
		if err != nil {
			return fmt.Errorf("backup: %w", err)
		}
		el := time.Since(start).Seconds()
		fmt.Printf("backed up %s: %d bytes, %d secrets, transferred %d share bytes (intra-user saving %.1f%%), %.1f MB/s\n",
			args[1], stats.LogicalBytes, stats.Secrets, stats.TransferredShareBytes,
			100*stats.IntraUserSaving(), float64(stats.LogicalBytes)/(1<<20)/el)
	case "restore":
		if len(args) < 3 || len(args)%2 != 1 {
			return errors.New("usage: restore <remote-path> <local-file> [<remote-path> <local-file> ...]")
		}
		for i := 1; i < len(args); i += 2 {
			start := time.Now()
			stats, err := restoreTo(c, args[i], args[i+1])
			if err != nil {
				return fmt.Errorf("restore %s: %w", args[i], err)
			}
			el := time.Since(start).Seconds()
			fmt.Printf("restored %s: %d bytes, %d secrets (%d reused, %d refetched), downloaded %d share bytes, %d subset retries, %.1f MB/s\n",
				args[i], stats.Bytes, stats.Secrets, stats.SecretsReused, stats.MemoRefetches, stats.DownloadedBytes,
				stats.SubsetRetries, float64(stats.Bytes)/(1<<20)/el)
		}
	case "list":
		files, err := c.ListFiles()
		if err != nil {
			return fmt.Errorf("list: %w", err)
		}
		for _, f := range files {
			fmt.Printf("%12d  %8d secrets  %s\n", f.FileSize, f.NumSecrets, f.Path)
		}
	case "delete":
		if len(args) != 2 {
			return errors.New("usage: delete <remote-path>")
		}
		if err := c.Delete(args[1]); err != nil {
			return fmt.Errorf("delete: %w", err)
		}
		fmt.Printf("deleted %s\n", args[1])
	case "repair":
		if len(args) != 3 {
			return errors.New("usage: repair <remote-path> <cloud-index>")
		}
		idx, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad cloud index: %w", err)
		}
		stats, err := c.Repair(args[1], idx)
		if err != nil {
			return fmt.Errorf("repair: %w", err)
		}
		fmt.Printf("repaired %s on cloud %d: %d secrets (%d reused), %d shares rebuilt (%d bytes)\n",
			args[1], idx, stats.Secrets, stats.SecretsReused, stats.SharesRebuilt, stats.BytesReuploads)
	case "scrub":
		if len(args) < 2 {
			return errors.New("usage: scrub status <cloud-index> | run <cloud-index> | heal")
		}
		switch args[1] {
		case "status", "run":
			if len(args) != 3 {
				return fmt.Errorf("usage: scrub %s <cloud-index>", args[1])
			}
			idx, err := strconv.Atoi(args[2])
			if err != nil {
				return fmt.Errorf("bad cloud index: %w", err)
			}
			if args[1] == "run" {
				if err := c.RunScrubPass(idx); err != nil {
					return fmt.Errorf("scrub run: %w", err)
				}
				fmt.Printf("cloud %d: scrub pass done\n", idx)
			}
			// The report is this user's view; the cloud's counters are on
			// the server's -debug listener, under /debug/vars.
			rep, err := c.ScrubStatus(idx)
			if err != nil {
				return fmt.Errorf("scrub status: %w", err)
			}
			fmt.Printf("cloud %d scrub: %d of your files affected\n", idx, len(rep.Affected))
			for _, af := range rep.Affected {
				detail := fmt.Sprintf("%d damaged shares", len(af.Damaged))
				if af.RecipeLost {
					detail = "recipe lost"
				}
				fmt.Printf("  affected: %s (%s)\n", af.Path, detail)
			}
		case "heal":
			round := c.Heal()
			failed := 0
			for _, o := range round.Outcomes {
				if o.Err != nil {
					fmt.Printf("  cloud %d %s: repair FAILED: %v\n", o.Cloud, o.Path, o.Err)
					failed++
					continue
				}
				fmt.Printf("  cloud %d %s: %d shares rebuilt (%d bytes up, %d down)\n",
					o.Cloud, o.Path, o.SharesRebuilt, o.BytesReuploaded, o.BytesDownloaded)
			}
			fmt.Printf("healed: %d clouds polled, %d busy, %d down, %d files skipped (unresolved encoded paths), %d repairs\n",
				round.CloudsPolled, round.CloudsBusy, round.CloudsDown, round.SkippedFiles, len(round.Outcomes))
			if failed > 0 {
				return fmt.Errorf("scrub heal: %d of %d repairs failed", failed, len(round.Outcomes))
			}
		default:
			return fmt.Errorf("unknown scrub subcommand %q", args[1])
		}
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}
