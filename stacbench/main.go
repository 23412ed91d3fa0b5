// Command stacbench is the coalition benchmark: it boots the real
// stacd as its own process, drives it over loopback TCP with two
// closed-loop roaming agents through one seeded, operation-bounded
// workload, checks every verdict, proof and datum against an
// in-process reference, and prints the end-to-end metrics. With
// -trace 1 it also replays the same stream in-process with spans
// around every layer and prints the per-layer table.
//
// Run it through run.sh from the repository root, which builds stacd
// and this command first:
//
//	bash stacbench/run.sh --workload tour-history --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero
// when any check fails.
package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"stac/internal/obs/perf"
	"stac/internal/proof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// numBoots is how many times a run boots stacd; setup_s is the median
// and the last boot serves the load.
const numBoots = 21

// numRounds splits the measured phase into rounds of equal work; each
// end-to-end timing is the median of its per-round values, so a burst
// of load from elsewhere on the host moves one round, not the result.
const numRounds = 10

// minRoundAccesses is the fewest accesses a round may hold: with 1000,
// ten samples lie beyond the round's 99th percentile.
const minRoundAccesses = 1000

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	stacd    string
	work     string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("stacbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: tour-history, wide-policy or roam-churn")
	fs.Int64Var(&c.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&c.seconds, "seconds", 10, "nominal length of the measured phase; sizes its operation count")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
	fs.StringVar(&c.stacd, "stacd", "", "stacd binary to boot")
	fs.StringVar(&c.work, "work", "", "directory for the run's policy file")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case c.stacd == "" || c.work == "":
		return c, fmt.Errorf("-stacd and -work are required (run through run.sh)")
	case c.seconds < 1:
		return c, fmt.Errorf("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// running tracks the live stacd so a signal can stop it.
var running struct {
	sync.Mutex
	d *daemon
}

func setRunning(d *daemon) {
	running.Lock()
	running.d = d
	running.Unlock()
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "stacbench:", err)
		return 2
	}
	spec, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "stacbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		running.Lock()
		if running.d != nil {
			_ = running.d.stop()
		}
		os.Exit(1)
	}()

	res, report, err := bench(cfg, spec, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "stacbench:", err)
		return 1
	}
	fmt.Fprint(stdout, report)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "stacbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// exitCode is 0 only for a run whose every check passed.
func exitCode(r result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

// bench performs one run and returns the result line and the
// human-readable report printed before it.
func bench(cfg config, spec workloadSpec, stderr io.Writer) (result, string, error) {
	// Whole history cycles per round: enough for the nominal length,
	// and never fewer than the p99 sample-count rule needs.
	cycles := int(math.Ceil(float64(cfg.seconds) * spec.toursPerSecond / float64(numRounds*spec.cycle)))
	minCycles := (minRoundAccesses + numAgents*spec.accessesPerTour()*spec.cycle - 1) / (numAgents * spec.accessesPerTour() * spec.cycle)
	if cycles < minCycles {
		cycles = minCycles
	}
	measured := cycles * spec.cycle * numRounds
	in := generate(spec, cfg.seed, measured)
	host := perf.Host()
	calib := calibrate()

	policyPath, err := writePolicy(cfg.work, in)
	if err != nil {
		return result{}, "", err
	}
	defer os.Remove(policyPath)

	// Set-up: boot stacd several times, keep the last boot.
	var boots []float64
	var d *daemon
	for i := 0; i < numBoots; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return result{}, "", fmt.Errorf("stop stacd after boot %d: %w", i, err)
			}
		}
		if d, err = boot(cfg.stacd, stacdArgs(in, policyPath)); err != nil {
			return result{}, "", err
		}
		boots = append(boots, d.setup.Seconds())
	}
	setRunning(d)
	lr, loadErr := runLoad(d, in, numRounds)
	stopErr := d.stop()
	setRunning(nil)
	if loadErr != nil {
		return result{}, "", loadErr
	}
	if stopErr != nil {
		fmt.Fprintln(stderr, "stacbench: stacd exit:", stopErr)
	}

	// The in-process reference replays the same stream.
	refCo, err := newCoalition(in)
	if err != nil {
		return result{}, "", err
	}
	ref, err := refCo.run(in, false, !cfg.trace)
	if err != nil {
		return result{}, "", fmt.Errorf("reference run: %w", err)
	}
	var traced *passResult
	if cfg.trace {
		co, err := newCoalition(in)
		if err != nil {
			return result{}, "", err
		}
		if traced, err = co.run(in, true, false); err != nil {
			return result{}, "", fmt.Errorf("traced run: %w", err)
		}
	}

	problems, attempted, failedN := checkRun(in, lr, ref, traced)
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(stderr, "stacbench: ... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintln(stderr, "stacbench: FAIL", p.msg)
	}

	e2e, rep, err := endToEnd(in, lr, boots, attempted, failedN)
	if err != nil {
		return result{}, "", err
	}
	hostJSON, _ := json.Marshal(host)
	header := fmt.Sprintf("workload %s seed %d: %d agents, %d warm-up + %d measured tours each (%d×%d reads), stream %s\nhost %s\nbench.calib_us %.1f us (HMAC-SHA-256 loop, median of 5); host CPU steal %.1f%% during the measured phase\n",
		spec.name, cfg.seed, numAgents, in.spec.warmupTours, measured, spec.hops, spec.perHop, in.digest()[:16], hostJSON, calib, 100*lr.steal)
	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failedN, Metrics: e2e}
	if traced != nil {
		layers, table := perLayer(in, lr, ref, traced, calib)
		res.Metrics = layers
		rep += table
	}
	return res, header + rep, nil
}

// checkRun checks a run: every agent's verdicts against the
// reference, every grant's proof and data, every transport error or
// reject, and the traced run's verdicts when there is one. failed
// counts the accesses with a problem; attempted is every access the
// streams hold.
func checkRun(in inputs, lr *loadRun, ref, traced *passResult) (problems []problem, attempted, failed int) {
	signer := proof.NewSigner([]byte(in.key))
	for a, ar := range lr.agents {
		attempted += in.streams[a].accesses()
		ps := append([]problem(nil), ar.problems...)
		ps = append(ps, compareVerdicts(a, ar.verdicts, ref.verdicts[a])...)
		ps = append(ps, checkGrants(a, ar.grants, in, signer)...)
		problems = append(problems, ps...)
		failed += failures(ps)
	}
	if traced != nil {
		for a := range traced.verdicts {
			ps := compareVerdicts(a, traced.verdicts[a], ref.verdicts[a])
			for i := range ps {
				ps[i].msg = "traced run: " + ps[i].msg
			}
			problems = append(problems, ps...)
			failed += failures(ps)
		}
	}
	return problems, attempted, failed
}

// endToEnd computes the metrics a user of the coalition sees, and
// their report lines. Timings are medians over the rounds; bytes and
// memory are totals. The report prints every metric; the returned map
// holds the gated ones.
func endToEnd(in inputs, lr *loadRun, boots []float64, attempted, failedN int) (map[string]metric, string, error) {
	var ops, p50, p99, arrive, tours, cpu []float64
	var reqBytes int64
	minTailSeen := -1
	for k, r := range lr.rounds {
		s := r.samples
		acc, err := summarize(fmt.Sprintf("round %d access latency", k), s.access)
		if err != nil {
			return nil, "", err
		}
		if minTailSeen < 0 || acc.tail < minTailSeen {
			minTailSeen = acc.tail
		}
		n := float64(len(s.access))
		ops = append(ops, n/r.wall.Seconds())
		p50 = append(p50, acc.p50)
		p99 = append(p99, acc.p99)
		arrive = append(arrive, median(s.arrive))
		tours = append(tours, median(s.tours))
		cpu = append(cpu, micros(r.daemonCPU)/n)
		reqBytes += s.reqBytes
	}
	total := lr.measuredAccesses()
	m := map[string]metric{
		"setup_s":                  {median(boots), "s"},
		"access_ops_s":             {median(ops), "ops/s"},
		"access_p50_us":            {median(p50), "us"},
		"access_p99_us":            {median(p99), "us"},
		"arrive_p50_us":            {median(arrive), "us"},
		"tour_p50_ms":              {median(tours), "ms"},
		"daemon_cpu_us_per_access": {median(cpu), "us"},
		"req_bytes_per_access":     {float64(reqBytes) / float64(total), "B"},
		"daemon_peak_rss_mb":       {float64(lr.daemonRSS) / (1 << 20), "MiB"},
	}
	rounds := len(lr.rounds)
	perRound := func(v []float64) string {
		parts := make([]string, len(v))
		for i, x := range v {
			parts[i] = fmt.Sprintf("%.4g", x)
		}
		return "rounds [" + strings.Join(parts, " ") + "]"
	}
	var b []byte
	line := func(name, detail string) {
		b = fmt.Appendf(b, "%-26s %14.4f %-6s %s\n", name, m[name].Value, m[name].Unit, detail)
	}
	line("setup_s", fmt.Sprintf("median of %d boots", len(boots)))
	line("access_ops_s", fmt.Sprintf("n=%d accesses, median of %d %s", total, rounds, perRound(ops)))
	line("access_p50_us", fmt.Sprintf("n=%d, median of %d %s", total, rounds, perRound(p50)))
	line("access_p99_us", fmt.Sprintf("n=%d, >=%d beyond p99 in every round, median of %d %s", total, minTailSeen, rounds, perRound(p99)))
	line("arrive_p50_us", fmt.Sprintf("n=%d, median of %d %s", total/(in.spec.perHop), rounds, perRound(arrive)))
	line("tour_p50_ms", fmt.Sprintf("n=%d, median of %d %s", total/in.spec.accessesPerTour(), rounds, perRound(tours)))
	line("daemon_cpu_us_per_access", fmt.Sprintf("median of %d %s", rounds, perRound(cpu)))
	line("req_bytes_per_access", fmt.Sprintf("n=%d", total))
	line("daemon_peak_rss_mb", "VmHWM after the run")
	var steal []float64
	for _, r := range lr.rounds {
		steal = append(steal, 100*r.steal)
	}
	b = fmt.Appendf(b, "%-26s %14s %-6s %s\n", "host steal %", "", "", perRound(steal))
	b = fmt.Appendf(b, "%-26s %14.4f %-6s %d failed of %d attempted\n", "fail_ratio", float64(failedN)/float64(attempted), "1", failedN, attempted)
	gated := make(map[string]metric, len(gatedMetrics))
	for _, name := range gatedMetrics {
		gated[name] = m[name]
	}
	return gated, string(b), nil
}

// gatedMetrics are the end-to-end metrics of the JSON line, the ones
// BENCHMARK.json bounds. On a shared VM, hypervisor steal episodes
// (20–36% of CPU time) multiply access_ops_s, access_p99_us and
// tour_p50_ms by 0.4–7, while the other timings except setup_s move by
// at most a fifth. So those three are reported by name but not gated;
// setup_s is gated regardless, as the benchmark's set-up time.
var gatedMetrics = []string{
	"setup_s", "access_p50_us", "arrive_p50_us",
	"daemon_cpu_us_per_access", "req_bytes_per_access", "daemon_peak_rss_mb",
}

// layerOrder lists the pipeline layers of the per-layer table.
var layerOrder = []string{
	"server.wire_decode", "sral.parse", "proof.carried_verify", "server.request",
	"core.authorize", "srac.static_check", "srac.prefix_eval", "temporal.check",
	"server.wire_encode", "server.authenticate", "server.depart",
}

// perLayer computes the per-layer metrics of a traced run, and the
// layer table ordered by self-time share.
func perLayer(in inputs, lr *loadRun, ref, tr *passResult, calib float64) (map[string]metric, string) {
	n := float64(tr.accesses)
	perAccess := func(layer string) float64 { return micros(tr.layers[layer]) / n }
	per := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return micros(d) / float64(calls)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var dial []float64
	var replyBytes int64
	var agentCPU time.Duration
	for _, r := range lr.rounds {
		dial = append(dial, r.samples.dial...)
		replyBytes += r.samples.replyBytes
		agentCPU += r.agentCPU
	}
	tcpN := float64(lr.measuredAccesses())
	gcShare := ratio(float64(ref.pipelineAlloc), float64(ref.totalAlloc))
	m := map[string]metric{
		"server.wire_decode_us":         {perAccess("server.wire_decode"), "us"},
		"server.wire_encode_us":         {perAccess("server.wire_encode"), "us"},
		"server.request_self_us":        {perAccess("server.request"), "us"},
		"server.authenticate_us":        {per(tr.layers["server.authenticate"], tr.auths), "us"},
		"server.depart_us":              {per(tr.layers["server.depart"], tr.departs), "us"},
		"server.reply_bytes_per_access": {float64(replyBytes) / tcpN, "B"},
		"bench.dial_us":                 {median(dial), "us"},
		"proof.carried_verify_us":       {perAccess("proof.carried_verify"), "us"},
		"proof.verifies_per_access":     {float64(tr.verifies) / n, "count"},
		"proof.reverify_ratio":          {ratio(float64(tr.reverifies), float64(tr.verifies)), "1"},
		"proof.issue_us":                {per(tr.issue, tr.grants), "us"},
		"proof.credential_verify_us":    {per(tr.credVerify, tr.auths), "us"},
		"rbac.permission_for_us":        {per(tr.permFor, tr.permProbes), "us"},
		"rbac.active_perms":             {ratio(float64(tr.activePerms), float64(tr.permProbes)), "count"},
		"core.authorize_self_us":        {perAccess("core.authorize"), "us"},
		"core.deny_ratio":               {float64(tr.denies) / n, "1"},
		"srac.prefix_eval_us":           {perAccess("srac.prefix_eval"), "us"},
		"srac.entries_per_scan":         {tr.entriesPerScan, "count"},
		"srac.evals_per_append":         {tr.evalsPerAppend, "count"},
		"temporal.check_us":             {perAccess("temporal.check"), "us"},
		"stacd.alloc_bytes_per_access":  {float64(ref.pipelineAlloc) / float64(ref.accesses), "B"},
		"stacd.gc_per_kaccess":          {float64(ref.gcCycles) * gcShare / float64(ref.accesses) * 1000, "count"},
		"bench.agent_cpu_us_per_access": {micros(agentCPU) / tcpN, "us"},
		"bench.trace_overhead_ratio":    {ratio(ref.work.Seconds(), tr.work.Seconds()), "1"},
		"bench.calib_us":                {calib, "us"},
	}

	// The layer table: self time per access, ordered by share. It
	// includes the two program layers, which are exactly zero on
	// workloads that declare no program.
	type row struct {
		layer string
		us    float64
	}
	var rows []row
	total := 0.0
	for _, l := range layerOrder {
		r := row{l, perAccess(l)}
		rows = append(rows, r)
		total += r.us
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].us > rows[j].us })
	var b []byte
	b = fmt.Appendf(b, "layer table (%s, traced in-process run, %d accesses; self time per access)\n", in.spec.name, tr.accesses)
	for _, r := range rows {
		b = fmt.Appendf(b, "  %-22s %10.2f us %6.1f%%\n", r.layer, r.us, 100*ratio(r.us, total))
	}
	b = fmt.Appendf(b, "  %-22s %10.2f us\n", "total", total)
	b = fmt.Appendf(b, "srac.static_check_us %.4f us (%d checks)\nsral.parse_us %.4f us (%d programs)\n",
		perAccess("srac.static_check"), tr.staticCheckRuns, perAccess("sral.parse"), tr.programAccesses)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b = fmt.Appendf(b, "%-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return m, string(b)
}

// calibrate times a fixed HMAC-SHA-256 loop (the primitive behind
// every proof and credential check) five times and returns the median
// in microseconds. It does not depend on the program, so a change in
// it between runs is host drift.
func calibrate() float64 {
	key := []byte("stacbench-calibration")
	msg := make([]byte, 256)
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < 20000; i++ {
			mac := hmac.New(sha256.New, key)
			mac.Write(msg)
			msg[i%len(msg)] = mac.Sum(nil)[0]
		}
		reps = append(reps, micros(time.Since(t0)))
	}
	return median(reps)
}
