// Cluster smoke test: the distributed subsystem's end-to-end acceptance.
// Three in-process lilyd-equivalent nodes (engine + cluster layer + HTTP
// server, wired exactly as cmd/lilyd does) serve the full benchmark
// suite through the batch API, and every mapped-BLIF SHA-256 must match
// testdata/golden.json no matter which node served the request or which
// tier (local compute, proxied compute, peer cache) produced it — the
// determinism argument of DESIGN.md §12, asserted byte for byte. Then an
// owner node is killed and its digests must still complete, degraded to
// another node's compute, with the spill visible in the survivor's
// counters.
//
// `make cluster-smoke` runs exactly this test; CI runs it as its own job.
package lily_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"lily"
	"lily/internal/cluster"
	"lily/internal/engine"
	"lily/internal/server"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// smokeNode is one in-process cluster member.
type smokeNode struct {
	id      string
	ts      *httptest.Server
	handler atomic.Value // of smokeHandler
	eng     *engine.Engine
	clu     *cluster.Cluster
}

// smokeHandler gives atomic.Value one concrete type across swaps.
type smokeHandler struct{ h http.Handler }

// newSmokeTrio wires three nodes the way three lilyd processes with the
// same -peers flags would be: shared metrics registry per node, cluster
// Remote hook on each engine, cluster-aware HTTP server.
func newSmokeTrio(t *testing.T) []*smokeNode {
	t.Helper()
	ids := []string{"n1", "n2", "n3"}
	nodes := make([]*smokeNode, len(ids))
	for i, id := range ids {
		n := &smokeNode{id: id}
		n.handler.Store(smokeHandler{http.NotFoundHandler()})
		n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n.handler.Load().(smokeHandler).h.ServeHTTP(w, r)
		}))
		nodes[i] = n
	}
	for i, n := range nodes {
		var peers []cluster.Node
		for j, p := range nodes {
			if j != i {
				peers = append(peers, cluster.Node{ID: p.id, URL: p.ts.URL})
			}
		}
		clu, err := cluster.New(cluster.Config{
			Self:          n.id,
			Peers:         peers,
			ProbeInterval: 100 * time.Millisecond,
			PeekTimeout:   5 * time.Second,
			ProxyTimeout:  10 * time.Minute,
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", n.id, err)
		}
		n.clu = clu
		n.eng = engine.New(engine.Config{
			Workers: 2,
			Metrics: clu.Registry(),
			Remote:  clu.Remote,
		})
		n.handler.Store(smokeHandler{server.New(n.eng, server.WithCluster(clu))})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.ts.Close()
			n.clu.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			_ = n.eng.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// suiteBatch builds the batch request covering every benchmark circuit in
// both objectives (honoring -short), with emit_blif so each stream line
// carries the golden hash.
func suiteBatch(t *testing.T) (server.BatchSubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var req server.BatchSubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		for _, obj := range []struct {
			name string
			obj  lily.Objective
		}{{"area", lily.ObjectiveArea}, {"delay", lily.ObjectiveDelay}} {
			req.Jobs = append(req.Jobs, server.SubmitRequest{
				Benchmark: circuit,
				EmitBLIF:  true,
				// Parallelism exercises parallel placement through the
				// whole cluster path; the golden hashes below prove it
				// changes nothing in the bytes.
				Options: server.JobOptions{Mapper: "lily", Objective: obj.name, Parallelism: 2},
			})
			keys = append(keys, goldenKey(circuit, obj.obj))
		}
	}
	return req, keys
}

// lutSuiteBatch builds the suite batch at target=lut4 in area mode (the
// pinned LUT goldens), with emit_blif so each stream line carries the
// golden hash. The LUT backend rides the same distribution machinery as
// ASIC mapping: same digest routing, same cache tiers.
func lutSuiteBatch(t *testing.T) (server.BatchSubmitRequest, []string) {
	t.Helper()
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	var req server.BatchSubmitRequest
	var keys []string
	for _, circuit := range circuits {
		if testing.Short() && shortSkip[circuit] {
			continue
		}
		req.Jobs = append(req.Jobs, server.SubmitRequest{
			Benchmark: circuit,
			EmitBLIF:  true,
			Options: server.JobOptions{
				Mapper: "lily", Objective: "area", Target: "lut4", Parallelism: 2},
		})
		keys = append(keys, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT4))
	}
	return req, keys
}

// runSuiteBatch submits the suite to one node and returns the stream
// lines keyed by job index, plus the submit ack.
func runSuiteBatch(t *testing.T, ts *httptest.Server, req server.BatchSubmitRequest) (server.BatchSubmitResponse, map[int]server.BatchResult) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status = %d, want 202", resp.StatusCode)
	}
	var ack server.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sr, err := http.Get(ts.URL + ack.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", sr.StatusCode)
	}
	results := make(map[int]server.BatchResult, len(req.Jobs))
	sc := bufio.NewScanner(sr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var line server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		results[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(req.Jobs) {
		t.Fatalf("streamed %d of %d results", len(results), len(req.Jobs))
	}
	return ack, results
}

// assertGoldenResults checks every stream line terminated successfully
// with the pinned mapped-BLIF hash for its (circuit, objective).
func assertGoldenResults(t *testing.T, node string, keys []string, results map[int]server.BatchResult, goldens map[string]goldenEntry) {
	t.Helper()
	for i, key := range keys {
		line, ok := results[i]
		if !ok {
			t.Errorf("[%s] %s: missing from stream", node, key)
			continue
		}
		if line.State != "done" {
			t.Errorf("[%s] %s: finished %s (%s), want done", node, key, line.State, line.Error)
			continue
		}
		want, ok := goldens[key]
		if !ok {
			t.Fatalf("no golden for %s", key)
		}
		if line.BLIFSHA256 != want.BLIFSHA256 {
			t.Errorf("[%s] %s: mapped BLIF hash drifted across the cluster:\n got %s\nwant %s",
				node, key, line.BLIFSHA256, want.BLIFSHA256)
		}
		if line.Result == nil || line.Result.Gates != want.Gates {
			t.Errorf("[%s] %s: gates drifted: %+v, want %d", node, key, line.Result, want.Gates)
		}
	}
}

func TestClusterSmoke(t *testing.T) {
	goldens := loadGoldens(t)
	nodes := newSmokeTrio(t)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	ring := n1.clu.Nodes()
	req, keys := suiteBatch(t)

	// Round 1 via n1: first sight of every digest — computed distributed,
	// each job at its HRW owner.
	ack, results := runSuiteBatch(t, n1.ts, req)
	assertGoldenResults(t, "n1", keys, results, goldens)

	// The suite must actually have been distributed: with 3 nodes, some
	// digests are owned elsewhere, so n1 proxied or spilled — it cannot
	// have computed everything without the cluster noticing.
	if info := n1.clu.Info(); info.Proxied == 0 {
		t.Errorf("round 1 proxied nothing — suite was not distributed: %+v", info)
	}

	// Rounds 2 and 3 via the other nodes: every digest is now cached at
	// its owner, so these exercise the shared cache tier (remote peeks
	// and local hits), and the bytes must not change.
	_, results2 := runSuiteBatch(t, n2.ts, req)
	assertGoldenResults(t, "n2", keys, results2, goldens)
	_, results3 := runSuiteBatch(t, n3.ts, req)
	assertGoldenResults(t, "n3", keys, results3, goldens)
	if info := n3.clu.Info(); info.RemoteHits == 0 {
		t.Errorf("round 3 hit no peer caches — cache tier not shared: %+v", info)
	}
	if hits := n2.eng.Stats().CacheHits + n2.eng.Stats().RemoteHits; hits == 0 {
		t.Errorf("round 2 recomputed everything — no tier served n2")
	}

	// Round 4: the suite again at target=lut4. Different target ⇒
	// different digests ⇒ fresh distributed compute, and every hash must
	// match the pinned LUT goldens no matter which node produced it.
	lutReq, lutKeys := lutSuiteBatch(t)
	_, lutResults := runSuiteBatch(t, n2.ts, lutReq)
	assertGoldenResults(t, "n2/lut4", lutKeys, lutResults, goldens)

	// Kill an owner: pick a job n2 owns (from the round-1 refs), close
	// n2, and resubmit it to n1 alone. The job must still complete with
	// the golden hash — degraded to another node's compute — and the
	// spill must be observable on n1.
	victim := -1
	for _, ref := range ack.Refs {
		if cluster.Owner(ref.Digest, ring) == "n2" {
			victim = ref.Index
			break
		}
	}
	if victim < 0 {
		t.Fatalf("no suite digest owned by n2 (ring %v)", ring)
	}
	n2.ts.Close()
	// Evict the victim from n1's local cache awareness by... it IS still
	// in n1's local LRU from round 1, which would short-circuit the walk.
	// Use a fresh engine-level path instead: ask n1's cluster layer
	// directly, as its engine would on a cache miss.
	spillsBefore := n1.clu.Info().Spills
	circ, err := lily.GenerateBenchmark(req.Jobs[victim].Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	obj := lily.ObjectiveArea
	if req.Jobs[victim].Options.Objective == "delay" {
		obj = lily.ObjectiveDelay
	}
	ereq := engine.Request{
		Benchmark: req.Jobs[victim].Benchmark,
		EmitBLIF:  true,
		Options:   lily.FlowOptions{Mapper: lily.MapperLily, Objective: obj},
	}
	digest := ack.Refs[victim].Digest
	out, rerr := n1.clu.Remote(context.Background(), digest, circ, ereq)
	if rerr != nil {
		t.Fatalf("Remote after owner death errored: %v — must degrade, not fail", rerr)
	}
	// (nil, nil) = "compute locally" is the expected degradation when the
	// spill walk reaches n1's own slot; a non-nil outcome means n3 served
	// it. Both are success — the job never fails.
	if out != nil && len(out.MappedBLIF) > 0 {
		key := goldenKey(req.Jobs[victim].Benchmark, obj)
		sum := sha256Hex(out.MappedBLIF)
		if sum != goldens[key].BLIFSHA256 {
			t.Errorf("degraded result hash drifted for %s: got %s want %s", key, sum, goldens[key].BLIFSHA256)
		}
	}
	if spills := n1.clu.Info().Spills; spills <= spillsBefore {
		t.Errorf("dead owner produced no spill on n1 (before %d, after %d)", spillsBefore, spills)
	}

	// And the full HTTP path still works with the dead node: resubmit the
	// victim job as a one-job batch to n1 — golden hash, no failure.
	oneJob := server.BatchSubmitRequest{Jobs: []server.SubmitRequest{req.Jobs[victim]}}
	_, degraded := runSuiteBatch(t, n1.ts, oneJob)
	key := goldenKey(req.Jobs[victim].Benchmark, obj)
	if line := degraded[0]; line.State != "done" || line.BLIFSHA256 != goldens[key].BLIFSHA256 {
		t.Errorf("degraded batch job: state=%s hash=%s, want done with %s",
			line.State, line.BLIFSHA256, goldens[key].BLIFSHA256)
	}
}
