// Command palsim runs a single cluster-scheduling simulation, either
// from explicit knobs (trace family, cluster size, scheduler, placement
// policy, locality penalty) or from a declarative scenario spec. It
// prints the aggregate metrics the paper reports.
//
// Examples:
//
//	palsim -trace sia -workload 5 -policy pal -sched fifo
//	palsim -trace synergy -load 10 -jobs 800 -policy tiresias -lacross 1.7
//	palsim -scenario examples/scenario/spec.json
//	palsim -scenario spec.json -dump-trace workload.json   # save the generated workload for replay
//	palsim -scenario spec.json -metrics out/               # archive telemetry (series CSVs + payload JSON)
//	palsim -scenario spec.json -decisions -metrics out/    # + decision trace, ready for palexplain
//	palsim -scenario spec.json -store results/.palstore    # repeat runs become O(read)
//	palsim -scenario spec.json -journal out/journal        # append an execution-journal record
//	palsim -trace sia -workload 5 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -scenario, the whole configuration comes from the JSON spec
// (internal/scenario documents the format) and the other
// simulation-shaping flags are rejected to prevent silently-ignored
// knobs. -metrics works on both paths: it attaches the fast-forward-safe
// collector (internal/metrics) and dumps the run's series and payload
// into the named directory, ready for cmd/palreport.
//
// With -journal, the run appends an execution journal (internal/journal)
// into the named directory — one task record naming whether the result
// was simulated or loaded from the store, plus a summary with store
// latency samples — mergeable with palsweep shard journals by
// `palreport -journal`. -cpuprofile/-memprofile write Go pprof profiles
// on clean exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/decision"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		traceKind  = flag.String("trace", "sia", "trace family: sia or synergy")
		workload   = flag.Int("workload", 1, "Sia-Philly workload index (1-8)")
		load       = flag.Float64("load", 10, "Synergy job arrival rate (jobs/hour)")
		jobs       = flag.Int("jobs", 800, "Synergy trace length")
		policy     = flag.String("policy", "pal", "placement policy: random-sticky, random, gandiva, tiresias, pm-first, pal")
		schedName  = flag.String("sched", "fifo", "scheduling policy: fifo, las, srtf")
		nodes      = flag.Int("nodes", 0, "cluster nodes (default: 16 for sia, 64 for synergy)")
		lacross    = flag.Float64("lacross", 1.5, "inter-node locality penalty")
		perModel   = flag.Bool("per-model-lacross", false, "use per-model locality penalties (Table II)")
		seed       = flag.Uint64("seed", 0xE4B, "experiment seed")
		utilize    = flag.Bool("util", false, "print the GPUs-in-use series (deciles), read from the metrics collector")
		events     = flag.Int("events", 0, "print the first N jobs' lifecycle records (arrival, first run, finish, preemptions, migrations, rejected); palexplain -job has the per-event timeline")
		asJSON     = flag.Bool("json", false, "print aggregate metrics as JSON")
		scenPath   = flag.String("scenario", "", "run a declarative scenario spec (JSON) instead of the flag-built configuration")
		dumpTrace  = flag.String("dump-trace", "", "with -scenario: save the scenario's workload as JSON for replay via a file-sourced spec")
		metricsDir = flag.String("metrics", "", "collect telemetry and dump the run's series (CSV) and payload (JSON) into this directory")
		decisions  = flag.Bool("decisions", false, "record the decision trace (internal/decision); with -metrics, the trace is archived next to the payload for palexplain")
		storeDir   = flag.String("store", "", "persistent result-store directory: repeat runs of the same configuration load from disk instead of simulating")
		journalDir = flag.String("journal", "", "append this run's execution journal (task record, store latency, summary) into this directory for palreport -journal")
		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile to this file (flushed on clean exit)")
		memProfile = flag.String("memprofile", "", "write a Go heap profile to this file on clean exit")
	)
	flag.Parse()

	sess, err := cli.Open("palsim", cli.Flags{
		Workers: 1, CacheCap: 1, Store: *storeDir, Journal: *journalDir,
		CPUProfile: *cpuProfile, MemProfile: *memProfile,
	})
	if err != nil {
		fatal(2, err)
	}

	out := outputFlags{
		asJSON: *asJSON, events: *events, utilize: *utilize,
		metricsDir: *metricsDir, decisions: *decisions,
	}
	if *scenPath != "" {
		runScenario(os.Stdout, sess, *scenPath, *dumpTrace, out)
		finish(os.Stderr, sess)
		return
	}
	if *dumpTrace != "" {
		fatal(2, fmt.Errorf("-dump-trace requires -scenario"))
	}

	pol, ok := policyByName(*policy)
	if !ok {
		fatal(2, fmt.Errorf("unknown policy %q", *policy))
	}
	s := sched.ByName(*schedName)
	if s == nil {
		fatal(2, fmt.Errorf("unknown scheduler %q", *schedName))
	}

	var (
		tr   *trace.Trace
		topo cluster.Topology
	)
	switch *traceKind {
	case "sia":
		tr = experiments.SiaTrace(*workload)
		topo = experiments.SiaTopology()
	case "synergy":
		params := trace.DefaultSynergyParams(*load)
		params.NumJobs = *jobs
		tr = trace.Synergy(params)
		topo = experiments.SynergyTopology()
	default:
		fatal(2, fmt.Errorf("unknown trace family %q", *traceKind))
	}
	if *nodes > 0 {
		topo = cluster.Topology{NumNodes: *nodes, GPUsPerNode: experiments.GPUsPerNode}
	}

	spec := experiments.RunSpec{
		Trace:           tr,
		Topo:            topo,
		Sched:           s,
		Policy:          pol,
		Profile:         experiments.LonghornProfile(topo.Size()),
		Lacross:         *lacross,
		Seed:            *seed,
		RecordDecisions: *decisions,
	}
	if *perModel {
		spec.ModelLacross = trace.LacrossByModel()
	}
	runFlagSpec(os.Stdout, sess, spec, out)
	finish(os.Stderr, sess)
}

// outputFlags are the output-shaping flags both run paths honor.
type outputFlags struct {
	asJSON     bool
	events     int  // print the first N lifecycle records
	utilize    bool // print the gpus_in_use deciles
	metricsDir string
	decisions  bool
}

// collector reports whether the output flags need a metrics collector
// and which series it records (nil: every series). -metrics archives
// every series; -util and -events alone need only gpus_in_use (the
// deciles) and the lifecycle records every collector derives.
func (o outputFlags) collector() (on bool, series []string) {
	switch {
	case o.metricsDir != "":
		return true, nil
	case o.utilize || o.events > 0:
		return true, []string{metrics.SeriesGPUsInUse}
	}
	return false, nil
}

// runFlagSpec runs the flag-built configuration through the session
// and prints or archives its outputs. It returns the result for tests.
func runFlagSpec(w io.Writer, s *cli.Session, spec experiments.RunSpec, out outputFlags) *sim.Result {
	spec.RecordMetrics, spec.MetricsSeries = out.collector()
	spec.Counters = s.Engine
	policy, schedName := spec.Policy.RegistryName(), spec.Sched.Name()
	label := fmt.Sprintf("%s %s %s", spec.Trace.Name, policy, schedName)
	res := run(s, spec.Key(), label, func() (*sim.Result, error) {
		return experiments.Run(spec)
	})
	if out.metricsDir != "" {
		dumpMetrics(out.metricsDir, fmt.Sprintf("%s-%s-%s", spec.Trace.Name, policy, schedName), res, spec.Key())
	}
	header := fmt.Sprintf("trace=%s jobs=%d cluster=%d GPUs policy=%s sched=%s lacross=%.2f",
		spec.Trace.Name, len(spec.Trace.Jobs), spec.Topo.Size(), spec.Policy, schedName, spec.Lacross)
	report(w, header, res, out)
	return res
}

// run executes the simulation as the session pool's one task under its
// content-addressed key: the cache loads a stored result instead of
// simulating, persists a fresh one, and degrades to simulating when
// the store fails.
func run(s *cli.Session, key, label string, fn func() (*sim.Result, error)) *sim.Result {
	res, err := s.Pool.Run(context.Background(), []runner.Task{{
		Key: key, Label: label, Run: fn,
		Counters: func() *sim.Counters { return s.Engine },
	}})
	if err != nil {
		fatal(1, err)
	}
	return res[0]
}

// finish writes the engine summary (when an engine stepped here) and
// the cache summary palsweep prints too, then closes the session on a
// clean exit.
func finish(w io.Writer, s *cli.Session) {
	s.EngineSummary(w)
	fmt.Fprintf(w, "palsim: %s\n", s.CacheSummary())
	s.Finish(w, false)
}

// dumpMetrics archives a run's telemetry payload, series CSVs and,
// when one was recorded, decision trace (ready for cmd/palexplain).
func dumpMetrics(dir, base string, res *sim.Result, key string) {
	payloadPath, tracePath, err := cli.WriteArchive(dir, base, key, res)
	if err != nil {
		fatal(1, err)
	}
	fmt.Fprintf(os.Stderr, "palsim: wrote metrics payload %s (+%d series CSVs)\n", payloadPath, len(metrics.FromResult(res).Series))
	if tracePath != "" {
		fmt.Fprintf(os.Stderr, "palsim: wrote decision trace %s (%d records)\n", tracePath, len(decision.FromResult(res).Records))
	}
}

// runScenario executes a declarative scenario spec end to end and
// returns the result for tests. -events, -util, -metrics and -decisions
// are output-shaping flags, not configuration, so they are honored by
// switching the spec's metrics and decisions blocks on (with a
// re-Normalize so the forced spec canonicalizes — and cache-keys —
// exactly like a file that enabled them).
func runScenario(w io.Writer, s *cli.Session, path, dumpTrace string, out outputFlags) *sim.Result {
	// The spec owns the whole configuration; a flag-built knob alongside
	// it would be silently ignored, so reject the combination.
	conflicting := map[string]bool{
		"trace": true, "workload": true, "load": true, "jobs": true,
		"policy": true, "sched": true, "nodes": true, "lacross": true,
		"per-model-lacross": true, "seed": true,
	}
	flag.Visit(func(f *flag.Flag) {
		if conflicting[f.Name] {
			fatal(2, fmt.Errorf("-%s conflicts with -scenario (the spec sets it)", f.Name))
		}
	})

	spec, err := scenario.LoadFile(path)
	if err != nil {
		fatal(2, err)
	}
	if on, series := out.collector(); on {
		switch {
		case !spec.Metrics.Enabled:
			spec.Metrics.Enabled, spec.Metrics.Series = true, series
		case out.utilize && len(spec.Metrics.Series) > 0 && !slices.Contains(spec.Metrics.Series, metrics.SeriesGPUsInUse):
			// The spec's own collector leaves out the series -util reads.
			spec.Metrics.Series = append(spec.Metrics.Series, metrics.SeriesGPUsInUse)
		}
	}
	if out.decisions {
		spec.Decisions.Enabled = true
	}
	spec.Normalize()
	built, err := spec.Build()
	if err != nil {
		fatal(2, err)
	}
	built.Counters = s.Engine
	if dumpTrace != "" {
		f, err := os.Create(dumpTrace)
		if err != nil {
			fatal(1, err)
		}
		if err := built.Trace.Save(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fatal(1, fmt.Errorf("dump-trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "palsim: saved %d-job workload to %s\n", len(built.Trace.Jobs), dumpTrace)
	}
	res := run(s, built.Key(), "scenario "+spec.Name, built.Run)
	if out.metricsDir != "" {
		dumpMetrics(out.metricsDir, spec.Name, res, built.Key())
	}
	header := fmt.Sprintf("scenario=%s trace=%s jobs=%d cluster=%d GPUs policy=%s sched=%s lacross=%.2f key=%s",
		spec.Name, built.Trace.Name, len(built.Trace.Jobs), built.Topo.Size(),
		spec.Policy.Name, spec.Sched.Name, spec.Locality.Lacross, built.Key()[:12])
	report(w, header, res, out)
	return res
}

// report writes the run's aggregate metrics (as JSON with -json), then
// the -events lifecycle records and the -util deciles, both read from
// the metrics collector the output flags attached.
func report(w io.Writer, header string, res *sim.Result, out outputFlags) {
	if out.asJSON {
		if err := export.ResultJSON(w, res); err != nil {
			fatal(1, err)
		}
		return
	}
	jcts := res.JCTs()
	waits := res.Waits()
	fmt.Fprintln(w, header)
	if res.Truncated {
		fmt.Fprintf(w, "  TRUNCATED at %d rounds: %d jobs unfinished; metrics cover completed jobs only\n",
			res.Rounds, res.Unfinished)
	}
	fmt.Fprintf(w, "  avg JCT      %10.1f s (%.2f h)\n", stats.Mean(jcts), stats.Mean(jcts)/3600)
	fmt.Fprintf(w, "  p50 JCT      %10.1f s\n", stats.Percentile(jcts, 50))
	fmt.Fprintf(w, "  p99 JCT      %10.1f s\n", stats.Percentile(jcts, 99))
	fmt.Fprintf(w, "  mean wait    %10.1f s\n", stats.Mean(waits))
	fmt.Fprintf(w, "  makespan     %10.1f s (%.2f h)\n", res.Makespan, res.Makespan/3600)
	fmt.Fprintf(w, "  utilization  %10.2f%%\n", 100*res.Utilization)
	fmt.Fprintf(w, "  rounds       %10d\n", res.Rounds)
	payload := metrics.FromResult(res)
	if out.events > 0 && payload != nil {
		printLifecycle(w, payload.Jobs, out.events)
	}
	if inUse, ok := payload.SeriesByName(metrics.SeriesGPUsInUse); out.utilize && ok {
		printDeciles(w, inUse.Values)
	}
}

// printLifecycle writes the first n jobs' lifecycle records; "-" marks
// a job that never ran or never finished.
func printLifecycle(w io.Writer, jobs []metrics.JobRecord, n int) {
	fmt.Fprintf(w, "  lifecycle (first %d of %d jobs):\n", min(n, len(jobs)), len(jobs))
	fmt.Fprintf(w, "    %5s %10s %10s %10s %7s %7s %8s\n",
		"job", "arrival", "first run", "finish", "preempt", "migrate", "rejected")
	orDash := func(ok bool, v float64) string {
		if !ok {
			return "-"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, j := range jobs[:min(n, len(jobs))] {
		rejected := "-"
		if j.Rejected {
			rejected = "yes"
		}
		fmt.Fprintf(w, "    %5d %10.0f %10s %10s %7d %7d %8s\n", j.ID, j.Arrival,
			orDash(j.Started, j.FirstRun), orDash(j.Done && !j.Rejected, j.Finish),
			j.Preemptions, j.Migrations, rejected)
	}
}

// printDeciles writes the mean GPUs in use over ten equal slices of the
// sampled rounds (integer means, like the GPU counts themselves).
func printDeciles(w io.Writer, inUse []float64) {
	if len(inUse) == 0 {
		return
	}
	fmt.Fprintf(w, "  in-use (deciles):")
	n := len(inUse)
	for d := 0; d < 10; d++ {
		slice := inUse[d*n/10 : (d+1)*n/10]
		if len(slice) == 0 {
			continue
		}
		sum := 0
		for _, v := range slice {
			sum += int(v)
		}
		fmt.Fprintf(w, " %d", sum/len(slice))
	}
	fmt.Fprintln(w)
}

// fatal reports err and exits: code 2 for usage and configuration
// errors, 1 for failures while running or writing output.
func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "palsim: %v\n", err)
	os.Exit(code)
}

func policyByName(name string) (experiments.Policy, bool) {
	switch name {
	case "random-sticky":
		return experiments.RandomSticky, true
	case "random", "random-non-sticky":
		return experiments.RandomNonSticky, true
	case "gandiva", "packed-non-sticky":
		return experiments.Gandiva, true
	case "tiresias", "packed-sticky", "packed":
		return experiments.Tiresias, true
	case "pm-first", "pmfirst":
		return experiments.PMFirst, true
	case "pal":
		return experiments.PALPolicy, true
	}
	return 0, false
}
