// Command bvbench regenerates the paper's tables and figures.
//
// Usage:
//
//	bvbench -list
//	bvbench -exp fig7-1
//	bvbench -exp all -scale 2
//	bvbench -concurrency [-readers 1,2,4,8] [-duration 2s] [-json BENCH_concurrency.json]
//	bvbench -writepath [-writers 8] [-writer-ops 2000] [-json BENCH_writepath.json]
//	bvbench -snapshot [-writers 4] [-writer-ops 4000] [-json BENCH_snapshot.json]
//	bvbench -ingest [-ingest-n 20000] [-json BENCH_ingest.json]
//	bvbench -server [-conns 1,2,4,8] [-conn-ops 2000] [-json BENCH_server.json]
//	bvbench -obs [-json BENCH_obs.json]
//	bvbench -nodelayout [-json BENCH_nodelayout.json]
//	bvbench -debug-addr localhost:6060 [-hold 10m]
//
// Each experiment prints the rows/series of the corresponding paper
// artifact together with a "shape check" describing what to look for; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for recorded runs.
// The -concurrency mode measures parallel read throughput against one
// in-memory tree and writes the scaling table to a JSON file; rows whose
// reader count exceeds the parallelism headroom (GOMAXPROCS < 2×readers)
// are annotated as saturated. The -writepath mode measures durable insert
// throughput under sync-per-op, group-commit and batched disciplines
// against a file-backed store. The -snapshot mode prices online backups:
// bursty durable ingest runs alone, under continuous SnapshotBackup
// streams, and under alternating checkpoints and backups, reporting
// writer-stall percentiles per phase to BENCH_snapshot.json. The -ingest mode compares single-writer durable
// ingestion disciplines — per-op inserts, z-sorted batches and the
// parallel BulkLoad — and writes
// BENCH_ingest.json. The -server mode stands up an in-process sharded
// bvserver (durable backend, sampling-chosen shard plan) and drives it
// over loopback TCP with a closed-loop mixed workload at increasing
// connection counts, writing client-observed p50/p95/p99 per op class to
// BENCH_server.json. The -obs mode prices the observability
// layer (instrumentation off vs metrics vs metrics+tracer) and writes
// BENCH_obs.json. The -nodelayout mode measures the columnar node
// layout (batched column predicates) against the pre-columnar scalar
// scans on one in-memory workload and writes BENCH_nodelayout.json. -debug-addr serves expvar (with the live tree metrics
// under the "bvtree" key) and net/http/pprof over a demo workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bvtree/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment ID to run, or \"all\"")
		scale     = flag.Int("scale", 1, "workload scale multiplier")
		list      = flag.Bool("list", false, "list experiments")
		conc      = flag.Bool("concurrency", false, "run the concurrent read-throughput benchmark")
		readers   = flag.String("readers", "1,2,4,8", "comma-separated reader goroutine counts for -concurrency")
		duration  = flag.Duration("duration", 2*time.Second, "measurement window per reader count for -concurrency")
		writepath = flag.Bool("writepath", false, "run the durable write-throughput benchmark")
		snapBench = flag.Bool("snapshot", false, "run the online-backup writer-stall benchmark")
		writers   = flag.Int("writers", 8, "concurrent writer goroutines for -writepath / -snapshot")
		writerOps = flag.Int("writer-ops", 2000, "inserts per writer for -writepath / -snapshot")
		ingest    = flag.Bool("ingest", false, "run the write-optimized ingestion benchmark")
		ingestN   = flag.Int("ingest-n", 20000, "points to load per mode for -ingest")
		srvBench  = flag.Bool("server", false, "run the sharded-server wire benchmark")
		srvConns  = flag.String("conns", "1,2,4,8", "comma-separated client connection counts for -server")
		srvOps    = flag.Int("conn-ops", 2000, "ops per connection for -server")
		obsBench  = flag.Bool("obs", false, "run the observability-overhead benchmark")
		nodeLay   = flag.Bool("nodelayout", false, "run the columnar node-layout benchmark")
		debugAddr = flag.String("debug-addr", "", "serve expvar+pprof on this address over a demo workload")
		hold      = flag.Duration("hold", 0, "how long -debug-addr serves (0 = until killed)")
		jsonPath  = flag.String("json", "", "output file for the -concurrency / -writepath / -obs report")
	)
	flag.Parse()

	if *debugAddr != "" {
		if err := runDebugServer(*debugAddr, *hold); err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: debug server: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *nodeLay {
		rep, err := bench.RunNodeLayout(os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: nodelayout: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_nodelayout.json")
		return
	}

	if *srvBench {
		counts, err := parseReaders(*srvConns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
			os.Exit(2)
		}
		rep, err := bench.RunServer(os.Stdout, *scale, counts, *srvOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: server: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_server.json")
		return
	}

	if *obsBench {
		rep, err := bench.RunObs(os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: obs: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_obs.json")
		return
	}

	if *ingest {
		rep, err := bench.RunIngest(os.Stdout, *ingestN)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: ingest: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_ingest.json")
		return
	}

	if *snapBench {
		rep, err := bench.RunSnapshot(os.Stdout, *writers, *writerOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: snapshot: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_snapshot.json")
		return
	}

	if *writepath {
		rep, err := bench.RunWritepath(os.Stdout, *writers, *writerOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: writepath: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_writepath.json")
		return
	}

	if *conc {
		counts, err := parseReaders(*readers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
			os.Exit(2)
		}
		rep, err := bench.RunConcurrency(os.Stdout, *scale, counts, *duration)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bvbench: concurrency: %v\n", err)
			os.Exit(1)
		}
		writeJSON(rep, *jsonPath, "BENCH_concurrency.json")
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *exp == "all" {
		for _, e := range bench.All() {
			if err := bench.Run(e.ID, os.Stdout, *scale); err != nil {
				fmt.Fprintf(os.Stderr, "bvbench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	if err := bench.Run(*exp, os.Stdout, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
		os.Exit(1)
	}
}

// writeJSON serialises a report to path (or its mode default) and exits
// on failure.
func writeJSON(rep any, path, fallback string) {
	if path == "" {
		path = fallback
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bvbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func parseReaders(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -readers value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-readers is empty")
	}
	return out, nil
}
