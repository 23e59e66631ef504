// Command diggstats analyzes a saved dataset directory (written by
// cmd/diggsim or cmd/diggscrape): corpus summary, cascade statistics,
// the trained classifier and its cross-validation — the offline half of
// the paper's workflow, runnable on any scrape.
//
// With -wal it instead inspects a diggd durable data directory
// (written with `diggd -data-dir`): WAL segments and record counts,
// the newest checkpoint's generation, the replay span a recovery would
// process, and the genesis provenance — the operator's view of what a
// restart will do, without touching the directory. Every shard gets
// its own report (diggd -shards N keeps shard-0000/ ... subdirectories;
// a one-shard store keeps its shard at the root); the exit status is 1
// if any shard is corrupt. When the
// directory belongs to a replication follower (diggd -replica-of; see
// docs/replication.md), the report adds the recorded position per
// shard — applied vs shipped LSN and last-contact age — and -max-lag
// makes the exit status non-zero when the follower has not heard from
// its primary within that bound.
//
// With -obs it queries a running diggd's slow-trace dump
// (GET /debug/obs) and pretty-prints the retained slow requests with
// their span breakdowns; see docs/observability.md.
//
// With -watch it polls a running diggd's metrics timeline
// (GET /debug/timeline) and repaints a live terminal view: SLO
// burn-rate statuses, write→visible freshness quantiles, and
// sparklines of the busiest series — the glanceable freshness view
// for deploys and incidents. -interval sets the refresh period and
// -once renders a single frame for logs or CI.
//
// Usage:
//
//	diggstats -data DIR [-tree] [-cv]
//	diggstats -wal DIR [-max-lag 30s]
//	diggstats -obs http://localhost:8080
//	diggstats -watch http://localhost:8080 [-interval 2s] [-once]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"diggsim/internal/cascade"
	"diggsim/internal/core"
	"diggsim/internal/dataset"
	"diggsim/internal/durable"
	"diggsim/internal/httpapi"
	"diggsim/internal/mltree"
	"diggsim/internal/repl"
	"diggsim/internal/rng"
	"diggsim/internal/shard"
	"diggsim/internal/stats"
	"diggsim/internal/timeseries"
)

func main() {
	data := flag.String("data", "", "dataset directory")
	walDir := flag.String("wal", "", "inspect a diggd durable data directory (WAL + checkpoints) instead of analyzing a dataset")
	obsURL := flag.String("obs", "", "print a running diggd's slow traces (base URL, e.g. http://localhost:8080)")
	watchURL := flag.String("watch", "", "live terminal view of a running diggd's metrics timeline (base URL; polls GET /debug/timeline)")
	watchInterval := flag.Duration("interval", 2*time.Second, "with -watch: refresh period")
	watchOnce := flag.Bool("once", false, "with -watch: render one frame and exit (no screen clearing; for logs and CI)")
	showTree := flag.Bool("tree", true, "print the learned decision tree")
	runCV := flag.Bool("cv", true, "run 10-fold cross-validation")
	seed := flag.Uint64("seed", 99, "cross-validation shuffle seed")
	maxLag := flag.Duration("max-lag", 0, "with -wal: exit non-zero when a follower's last primary contact is older than this (0 disables)")
	flag.Parse()
	if *walDir != "" {
		inspectWAL(*walDir, *maxLag)
		return
	}
	if *obsURL != "" {
		inspectObs(*obsURL)
		return
	}
	if *watchURL != "" {
		watchTimeline(*watchURL, *watchInterval, *watchOnce)
		return
	}
	if *data == "" {
		fmt.Fprintln(os.Stderr, "diggstats: -data is required (or -wal to inspect a data directory, -obs to query a live server)")
		flag.Usage()
		os.Exit(2)
	}

	ds, err := dataset.Load(*data)
	if err != nil {
		fatal(err)
	}
	promoted := 0
	var finals []float64
	for _, s := range ds.Stories {
		if s.Promoted {
			promoted++
		}
		finals = append(finals, float64(s.VoteCount()))
	}
	fmt.Printf("corpus: %d stories (%d promoted), %d users, %d fan links\n",
		len(ds.Stories), promoted, ds.Graph.NumNodes(), ds.Graph.NumEdges())
	sum := stats.Summarize(finals)
	fmt.Printf("votes per story: median=%.0f mean=%.0f max=%.0f\n",
		sum.Median, sum.Mean, sum.Max)

	if len(ds.FrontPage) == 0 {
		fmt.Println("no front-page sample in this dataset; nothing to train on")
		return
	}
	fmt.Printf("\nfront-page sample: %d stories\n", len(ds.FrontPage))

	// Cascade statistics (Fig. 3/4 ingredients).
	all := cascade.AnalyzeAll(ds.Graph, ds.FrontPage)
	var in10 []float64
	interesting := 0
	for _, st := range all {
		in10 = append(in10, float64(st.InNet10))
		if core.Interesting(st.FinalVotes) {
			interesting++
		}
	}
	fmt.Printf("interesting (>520 votes): %d/%d\n", interesting, len(all))
	fmt.Printf("in-network votes within first 10: median=%.0f, >=5 for %.0f%% of stories\n",
		stats.Median(in10), 100*frac(in10, 5))

	// Novelty decay.
	if med, n := timeseries.MedianHalfLife(ds.FrontPage, 4*60, 5*24*60); n > 0 {
		fmt.Printf("post-promotion half-life: median %.1f h over %d fitted stories\n", med/60, n)
	}

	// Classifier.
	examples := core.ExtractAll(ds.Graph, ds.FrontPage)
	p, err := core.Train(examples, nil, mltree.DefaultConfig())
	if err != nil {
		fatal(err)
	}
	if *showTree {
		fmt.Printf("\nlearned decision tree (v10, fans1):\n%s\n", p.Tree.String())
	}
	if *runCV {
		cv, err := core.CrossValidate(examples, nil, mltree.DefaultConfig(), 10, rng.New(*seed))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n10-fold CV: %d/%d correct (%.1f%%)  [%s]\n",
			cv.Correct(), cv.Total(), 100*cv.Accuracy(), cv)
	}
	if auc, err := p.AUC(examples); err == nil {
		fmt.Printf("training AUC: %.3f\n", auc)
	}
}

// inspectWAL reports on a diggd data directory, one report per shard
// (a one-shard store's shard is the directory itself, shard-NNNN/
// subdirectories otherwise), plus any recorded replication position.
// Exits 1 if any shard is corrupt, missing its checkpoint, or (with
// -max-lag) the follower is beyond the lag bound.
func inspectWAL(dir string, maxLag time.Duration) {
	dirs, err := shard.ShardDirs(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("data directory: %d shards\n", len(dirs))
	unhealthy := 0
	for i, sd := range dirs {
		fmt.Printf("\n--- shard %d (%s) ---\n", i, sd)
		info, err := durable.Inspect(sd)
		if err != nil {
			fmt.Println("inspect failed:", err)
			unhealthy++
			continue
		}
		fmt.Print(info.String())
		if info.Corrupt != nil || info.Checkpoint == nil {
			unhealthy++
		}
	}
	bad := unhealthy > 0
	if bad {
		fmt.Printf("\n%d of %d shards unhealthy\n", unhealthy, len(dirs))
	}
	if reportRepl(dir, maxLag) {
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}

// reportRepl prints the replication position recorded in the data
// directory's repl-state.json, when present, and reports whether the
// node is beyond maxLag. The file is written by a running follower
// about once a second, so for a live node "last contact" is accurate
// to roughly that; for a dead node it dates the moment replication
// stopped. The lag bound only applies while the node is still
// read-only — a promoted follower is a primary and has no lag.
func reportRepl(dir string, maxLag time.Duration) bool {
	st, err := repl.ReadState(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false // never ran as a follower
		}
		fmt.Println("\nreplication state unreadable:", err)
		return true
	}
	now := time.Now()
	role := "promoted primary (writable)"
	if st.ReadOnly {
		role = "read-only follower"
	}
	fmt.Printf("\nreplication: %s of %s, position recorded %s ago\n",
		role, st.Primary, fmtAge(now.Sub(time.Unix(0, st.UpdatedUnixNano))))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tAPPLIED\tSHIPPED\tBEHIND\tLAST CONTACT")
	beyond := false
	for _, sh := range st.Shards {
		behind := uint64(0)
		if sh.ShippedLSN > sh.AppliedLSN {
			behind = sh.ShippedLSN - sh.AppliedLSN
		}
		contact := "never"
		if sh.LastContact > 0 {
			age := now.Sub(time.Unix(0, sh.LastContact))
			contact = fmtAge(age) + " ago"
			if maxLag > 0 && st.ReadOnly && age > maxLag {
				beyond = true
			}
		} else if maxLag > 0 && st.ReadOnly {
			beyond = true
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\n",
			sh.Shard, sh.AppliedLSN, sh.ShippedLSN, behind, contact)
	}
	tw.Flush()
	if beyond {
		fmt.Printf("follower is beyond the -max-lag bound (%s)\n", maxLag)
	}
	return beyond
}

// fmtAge renders a duration at operator precision: milliseconds under
// a second, tenths of a second under a minute, whole seconds beyond.
func fmtAge(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	switch {
	case d < time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}

// inspectObs fetches a running diggd's GET /debug/obs dump and
// renders the retained slow traces newest-first with their span
// breakdowns.
func inspectObs(base string) {
	dump, err := httpapi.NewClient(base).ObsDump(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("slow traces: %d total", dump.SlowTotal)
	if n := len(dump.SlowTraces); n > 0 {
		fmt.Printf(", %d retained (newest first)", n)
	}
	fmt.Println()
	for _, tr := range dump.SlowTraces {
		start := time.UnixMilli(tr.StartUnixMillis).UTC().Format("15:04:05.000")
		fmt.Printf("  %s %s %s %s -> %d in %s\n",
			tr.ID, start, tr.Method, tr.Path, tr.Status, fmtMillis(tr.DurationMillis))
		for _, sp := range tr.Spans {
			fmt.Printf("    +%s %s %s\n", fmtMillis(sp.OffsetMillis), sp.Name, fmtMillis(sp.DurationMillis))
		}
	}
}

// fmtMillis renders a millisecond value at the precision that matters
// for it: microsecond detail below 1ms, tenths above, seconds when
// large.
func fmtMillis(ms float64) string {
	switch {
	case ms == 0:
		return "0"
	case ms < 1:
		return fmt.Sprintf("%.0fµs", ms*1000)
	case ms < 1000:
		return fmt.Sprintf("%.1fms", ms)
	default:
		return fmt.Sprintf("%.2fs", ms/1000)
	}
}

func frac(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diggstats:", err)
	os.Exit(1)
}
