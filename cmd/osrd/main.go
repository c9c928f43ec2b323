// Command osrd serves one-sided-recursion queries over HTTP: the
// network face of the Engine façade with multi-tenant resource
// governance (per-request deadlines, derived-fact gas, fact-count
// admission, bounded concurrency). See internal/server for the API.
//
// Usage:
//
//	osrd [-addr :8080] [-program file.dl] [-data dir]
//	     [-follow primary-url] [-promote]
//	     [-quota-facts n] [-quota-gas n] [-quota-deadline d]
//	     [-max-concurrent n]
//	     [-debug-addr 127.0.0.1:6060] [-debug-profile-rate n]
//
// -debug-addr serves net/http/pprof on a separate listener;
// -debug-profile-rate additionally turns on mutex and block profiling
// at the given sampling rate (1 = every event), which is what makes
// write-path lock contention visible in /debug/pprof/mutex and
// /debug/pprof/block.
//
// Replication: a primary started with -data serves its write-ahead log
// under /v1/repl/. A follower (-follow http://primary -data mirrordir)
// bootstraps from the primary's newest checkpoint chain, tails its live
// segments into mirrordir, and serves reads; writes are rejected with
// 421 and a Location header naming the primary. /v1/stats reports the
// follower's lag in epochs and bytes. To fail over, stop the follower
// and restart it with -promote -data mirrordir: recovery selects the
// longest validated chain in the mirror and the node comes up as a
// primary over it.
//
// Endpoints (all JSON; tenant identity via the X-Tenant header,
// default "default"):
//
//	POST /v1/query        {"query":"t(a, Y)","timeout_ms":500}
//	POST /v1/query/stream same request; NDJSON rows flushed as derived
//	POST /v1/batch        {"queries":["t(a, Y)","t(b, Y)"]}
//	POST /v1/facts        {"facts":[{"pred":"a","args":["x","y"]}],"rules":[...]}
//	GET  /v1/stats        engine + per-tenant counters
//
// The quota flags set the default tenant quota: -quota-gas bounds the
// derived tuples per query (exceeding it is a 429), -quota-deadline
// caps each request's evaluation deadline (504 on expiry), and
// -quota-facts caps stored tuples (429 on ingest past the limit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	onesided "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	program := flag.String("program", "", "load this .dl file (facts + rules) at startup")
	dataDir := flag.String("data", "", "persist facts, rules, and plan shapes in this directory")
	follow := flag.String("follow", "", "run as a read-only follower of this primary URL (-data is the mirror directory)")
	promote := flag.Bool("promote", false, "open -data (a follower's mirror) as the primary log and accept writes")
	quotaFacts := flag.Int64("quota-facts", 0, "max stored tuples; ingest past the limit is rejected (0 = unlimited)")
	quotaGas := flag.Int64("quota-gas", 0, "derived-fact gas per query; exhaustion aborts with 429 (0 = unlimited)")
	quotaDeadline := flag.Duration("quota-deadline", 0, "cap on each request's evaluation deadline (0 = uncapped)")
	quotaSubs := flag.Int("quota-subs", 0, "max concurrently open /v1/subscribe streams per tenant and engine-wide; excess gets 429 (0 = unlimited)")
	maxConcurrent := flag.Int("max-concurrent", 0, "evaluations in flight before 503 (0 = 4 x GOMAXPROCS)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty; bind to localhost)")
	debugProfileRate := flag.Int("debug-profile-rate", 0, "enable mutex and block profiling at this sampling rate (0 = off; 1 = every event; requires -debug-addr to be useful)")
	flag.Parse()
	if *debugProfileRate > 0 {
		// Lock contention on the write path (relation mutexes, the WAL's
		// commit-group handoff) only shows up in the mutex and block
		// profiles, which are off by default because sampling costs a
		// little on every contended event. Opt in at a chosen rate:
		// /debug/pprof/mutex and /debug/pprof/block then have data.
		runtime.SetMutexProfileFraction(*debugProfileRate)
		runtime.SetBlockProfileRate(*debugProfileRate)
	}
	if *debugAddr != "" {
		// The pprof handlers register on http.DefaultServeMux at import;
		// serving that mux on a separate opt-in listener keeps the
		// profiling surface off the public API address.
		go func() {
			log.Printf("debug/pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	if err := run(*addr, *program, *dataDir, *follow, *promote, onesided.Quota{
		MaxFacts:         *quotaFacts,
		MaxDerived:       *quotaGas,
		MaxDeadline:      *quotaDeadline,
		MaxSubscriptions: *quotaSubs,
	}, *maxConcurrent); err != nil {
		fmt.Fprintln(os.Stderr, "osrd:", err)
		os.Exit(1)
	}
}

func run(addr, program, dataDir, follow string, promote bool, quota onesided.Quota, maxConcurrent int) error {
	switch {
	case follow != "" && promote:
		return errors.New("-follow and -promote are mutually exclusive")
	case follow != "" && dataDir == "":
		return errors.New("-follow requires -data (the mirror directory)")
	case follow != "" && program != "":
		return errors.New("-program cannot be combined with -follow: a follower's program comes from the primary")
	case promote && dataDir == "":
		return errors.New("-promote requires -data (the mirror to take over)")
	}
	opts := []onesided.Option{onesided.WithQuota(quota)}
	if dataDir != "" && follow == "" {
		// Primary (or promotion): own the directory as the write-ahead
		// log. Promotion is just recovery over the mirror — wal.Open
		// selects the newest resolvable checkpoint chain and truncates a
		// torn tail, so the promoted node serves exactly the validated
		// replicated history.
		opts = append(opts, onesided.WithPersistence(dataDir))
	}
	eng, err := onesided.Open(opts...)
	if err != nil {
		return err
	}
	defer eng.Close()
	if promote {
		log.Printf("promoted %s: epoch %d, %d tuples", dataDir, eng.DB().Epoch(), eng.DB().TupleCount())
	}
	if program != "" {
		data, err := os.ReadFile(program)
		if err != nil {
			return err
		}
		if _, err := eng.Load(string(data)); err != nil {
			return fmt.Errorf("load %s: %w", program, err)
		}
		log.Printf("loaded %s: %d tuples", program, eng.DB().TupleCount())
	}
	cfg := server.Config{
		Engine:        eng,
		DefaultQuota:  quota,
		MaxConcurrent: maxConcurrent,
	}
	if follow != "" {
		f, err := replica.Start(replica.FollowerConfig{
			Engine:  eng,
			Primary: follow,
			Dir:     dataDir,
		})
		if err != nil {
			return fmt.Errorf("follow %s: %w", follow, err)
		}
		// Engine.Close stops the follower (Start registers an OnClose
		// hook), so the deferred Close above covers both.
		cfg.PrimaryURL = follow
		cfg.Replication = f.Stats
		log.Printf("following %s into %s", follow, dataDir)
	} else if lg := eng.Log(); lg != nil {
		cfg.Repl = replica.NewSource(lg, eng.DB())
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("osrd listening on %s (quota: facts=%d gas=%d deadline=%s)",
		addr, quota.MaxFacts, quota.MaxDerived, quota.MaxDeadline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("received %s; shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	// Close (deferred) checkpoints and flushes the persistence log.
	return nil
}
