// Command lilyd serves the lily mapping pipeline over HTTP: submit a job
// (benchmark name or uploaded BLIF plus flow options), poll its status,
// fetch the FlowResult, and download the layout SVG. Jobs execute on the
// concurrent flow engine (worker pool, per-job timeouts, content-addressed
// result cache, singleflight dedup); SIGINT/SIGTERM trigger a graceful
// shutdown that drains in-flight jobs.
//
// The daemon is built for sustained job streams: terminal jobs are
// retained boundedly (-max-jobs, oldest evicted first) and aged out
// (-retain); evicted IDs answer 410 Gone. A full submit queue sheds load
// with 429 Too Many Requests + Retry-After instead of hanging the
// connection, and the listener enforces header/idle timeouts against
// slow clients.
//
// Observability: GET /metrics serves Prometheus text exposition for the
// engine, flow, and HTTP layers; GET /v1/jobs/{id}/trace returns the
// job's phase-span tree (tracing is on by default, -trace=false disables
// it); -debug-addr starts a second, private listener exposing
// net/http/pprof. Logs are structured (log/slog); -log-format selects
// text or json.
//
// Cluster mode: -node-id names this node and -peers lists the other
// members (id=url pairs). N lilyd processes launched with the same
// membership become one logical service: each request's content digest
// has a single owner under rendezvous hashing, non-owners peek the
// owner's cache (GET /v1/cache/{digest}) or proxy the compute to it, and
// an owner that is down or shedding spills the request down the HRW
// order — local compute is always the final fallback. Results are
// byte-identical no matter which node computes them, so the tiers are
// interchangeable.
//
// Usage:
//
//	lilyd -addr :8080 -workers 8 -cache 256 -timeout 5m -max-jobs 4096 -retain 1h
//
// Three-node localhost cluster:
//
//	lilyd -addr :8081 -node-id n1 -peers 'n2=http://localhost:8082,n3=http://localhost:8083'
//	lilyd -addr :8082 -node-id n2 -peers 'n1=http://localhost:8081,n3=http://localhost:8083'
//	lilyd -addr :8083 -node-id n3 -peers 'n1=http://localhost:8081,n2=http://localhost:8082'
//
// Example session:
//
//	curl -s localhost:8080/v1/benchmarks
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"benchmark":"C432","svg":true,"options":{"mapper":"lily","objective":"area"}}'
//	curl -s 'localhost:8080/v1/jobs/job-000001?wait=10s'
//	curl -s localhost:8080/v1/jobs/job-000001/result
//	curl -s localhost:8080/v1/jobs/job-000001/trace
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lily"
	"lily/internal/cluster"
	"lily/internal/engine"
	"lily/internal/obs"
	"lily/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size")
	parallelism := flag.Int("parallelism", 0,
		"intra-job placement worker default for jobs that don't set options.parallelism (0 = sequential; bit-identical output at any setting)")
	queue := flag.Int("queue", 0, "submit-queue capacity (0 = 4x workers)")
	cache := flag.Int("cache", 256, "result-cache entries (negative disables)")
	timeout := flag.Duration("timeout", 10*time.Minute, "default per-job timeout (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	maxJobs := flag.Int("max-jobs", 4096,
		"terminal jobs retained for status/result fetches; oldest evicted first (negative = unlimited)")
	retain := flag.Duration("retain", time.Hour,
		"drop terminal jobs older than this (0 = keep until evicted)")
	trace := flag.Bool("trace", true,
		"record per-job phase-span traces, served at /v1/jobs/{id}/trace")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logRequests := flag.Bool("log-requests", false, "log one record per HTTP request")
	debugAddr := flag.String("debug-addr", "",
		"separate listen address for net/http/pprof (empty = disabled)")
	nodeID := flag.String("node-id", "",
		"stable cluster node ID (required with -peers; standalone default \"solo\")")
	peersFlag := flag.String("peers", "",
		"comma-separated cluster peers as id=url pairs, e.g. 'n2=http://host2:8080,n3=http://host3:8080'")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "peer health-probe cadence")
	targetFlag := flag.String("target", "asic",
		"technology target for jobs that don't set options.target: asic, lut4, or lut6")
	mlThreshold := flag.Int("multilevel-threshold", 0,
		"placement V-cycle threshold for jobs that don't set options.multilevel_threshold (0 = library default 25000, negative disables)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
		os.Exit(2)
	}

	defaultTarget, err := lily.ParseTechnologyTarget(*targetFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
		os.Exit(2)
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
		os.Exit(2)
	}
	if len(peers) > 0 && *nodeID == "" {
		fmt.Fprintln(os.Stderr, "lilyd: -peers requires -node-id")
		os.Exit(2)
	}

	// One registry across engine, flow, cluster, and HTTP layers: a
	// single /metrics scrape sees peer health next to queue depth.
	var clu *cluster.Cluster
	reg := obs.NewRegistry()
	if len(peers) > 0 {
		clu, err = cluster.New(cluster.Config{
			Self:          *nodeID,
			Peers:         peers,
			ProbeInterval: *probeEvery,
			Metrics:       reg,
			Logger:        logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lilyd: %v\n", err)
			os.Exit(2)
		}
	}

	engCfg := engine.Config{
		Workers:         *workers,
		Parallelism:     *parallelism,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		DefaultTimeout:  *timeout,
		MaxRetainedJobs: *maxJobs,
		RetainFor:       *retain,
		Metrics:         reg,
		Trace:           *trace,
		// A network service must never park a connection on a full
		// queue; shed load and let the handler answer 429 + Retry-After.
		LoadShed: true,
		// One structured record per terminal job, from the worker that
		// finished it.
		OnTerminal: func(st engine.Status) {
			logger.Info("job done",
				slog.String("job_id", st.ID),
				slog.String("state", st.State),
				slog.String("benchmark", st.Benchmark),
				slog.Bool("cache_hit", st.CacheHit),
				slog.Bool("deduped", st.Deduped),
				slog.Duration("queue_wait", st.QueueWait),
				slog.Duration("run_time", st.RunTime),
			)
		},
	}
	if clu != nil {
		engCfg.Remote = clu.Remote
	}
	eng := engine.New(engCfg)

	srvOpts := []server.Option{server.WithDefaultTarget(defaultTarget)}
	if *mlThreshold != 0 {
		srvOpts = append(srvOpts, server.WithDefaultMultilevelThreshold(*mlThreshold))
	}
	if clu != nil {
		srvOpts = append(srvOpts, server.WithCluster(clu))
	} else if *nodeID != "" {
		srvOpts = append(srvOpts, server.WithNodeID(*nodeID))
	}
	handler := server.New(eng, srvOpts...)
	if *logRequests {
		handler.Logger = logger
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Defenses against slow or abusive clients: a peer may not dribble
		// headers forever, idle keep-alives are reaped, and headers are
		// size-capped. No WriteTimeout — the server-side ?wait clamp
		// already bounds long-polls, and SVG downloads may be large.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute, // full request incl. 8 MiB BLIF body
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening",
		slog.String("addr", *addr),
		slog.Int("workers", *workers),
		slog.Int("queue_cap", eng.Stats().QueueCap),
		slog.Int("cache", *cache),
		slog.Duration("timeout", *timeout),
		slog.Int("max_jobs", *maxJobs),
		slog.Duration("retain", *retain),
		slog.Bool("trace", *trace),
	)
	if clu != nil {
		logger.Info("cluster mode",
			slog.String("node_id", clu.Self()),
			slog.Any("ring", clu.Nodes()),
		)
	}

	// pprof lives on its own listener so profiling endpoints are never
	// reachable through the public API address. Handlers are registered
	// explicitly on a private mux — importing net/http/pprof for its
	// DefaultServeMux side effect would leak them onto any handler that
	// falls through to the default mux.
	var dbg *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", slog.String("error", err.Error()))
			}
		}()
		logger.Info("pprof listening", slog.String("addr", *debugAddr))
	}

	select {
	case err := <-errc:
		logger.Error("serve", slog.String("error", err.Error()))
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight jobs", slog.Duration("budget", *drain))

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", slog.String("error", err.Error()))
	}
	if dbg != nil {
		if err := dbg.Shutdown(shutdownCtx); err != nil {
			logger.Warn("debug shutdown", slog.String("error", err.Error()))
		}
	}
	if err := eng.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("engine shutdown", slog.String("error", err.Error()))
	}
	if clu != nil {
		clu.Close()
	}
	logger.Info("bye")
}

// parsePeers parses the -peers flag: comma-separated id=url pairs. An
// empty string means standalone mode.
func parsePeers(s string) ([]cluster.Node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var nodes []cluster.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		id, u = strings.TrimSpace(id), strings.TrimSpace(u)
		if !ok || id == "" || u == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		if _, err := url.ParseRequestURI(u); err != nil {
			return nil, fmt.Errorf("bad -peers URL for %s: %w", id, err)
		}
		nodes = append(nodes, cluster.Node{ID: id, URL: strings.TrimRight(u, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers set but no id=url pairs parsed from %q", s)
	}
	return nodes, nil
}

// newLogger builds the process logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want \"text\" or \"json\")", format)
	}
}
