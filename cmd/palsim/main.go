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
// The configuration flags lower into a scenario spec (internal/scenario
// documents the format): -trace sia -workload N is the sia-philly
// workload source, -trace synergy -load L -jobs J the synergy source,
// -nodes the cluster size (default 16 for sia, 64 for synergy), -policy
// and -sched the registry names, -lacross and -per-model-lacross the
// locality block, -seed the root seed. With -scenario the whole
// configuration comes from the JSON spec instead, and those flags are
// rejected to prevent silently-ignored knobs. Either way the spec is
// validated before anything is created on disk and then runs through
// one path: the output flags switch its metrics and decisions blocks
// on, the run is the session pool's one task under the spec's cache
// key, and -dump-trace, -metrics and the report work the same for both.
// -metrics attaches the fast-forward-safe collector (internal/metrics)
// and dumps the run's series and payload into the named directory,
// ready for cmd/palreport.
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
	"repro/internal/decision"
	"repro/internal/export"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var cf configFlags
	flag.StringVar(&cf.trace, "trace", defaults.trace, "trace family: sia or synergy")
	flag.IntVar(&cf.workload, "workload", defaults.workload, "Sia-Philly workload index (1-8)")
	flag.Float64Var(&cf.load, "load", defaults.load, "Synergy job arrival rate (jobs/hour)")
	flag.IntVar(&cf.jobs, "jobs", defaults.jobs, "Synergy trace length")
	flag.StringVar(&cf.policy, "policy", defaults.policy, "placement policy: random-sticky, random, gandiva, tiresias, pm-first, pal")
	flag.StringVar(&cf.sched, "sched", defaults.sched, "scheduling policy: fifo, las, srtf")
	flag.IntVar(&cf.nodes, "nodes", defaults.nodes, "cluster nodes (default: 16 for sia, 64 for synergy)")
	flag.Float64Var(&cf.lacross, "lacross", defaults.lacross, "inter-node locality penalty")
	flag.BoolVar(&cf.perModel, "per-model-lacross", defaults.perModel, "use per-model locality penalties (Table II)")
	flag.Uint64Var(&cf.seed, "seed", defaults.seed, "experiment seed")
	var (
		utilize    = flag.Bool("util", false, "print the GPUs-in-use series (deciles), read from the metrics collector")
		events     = flag.Int("events", 0, "print the first N jobs' lifecycle records (arrival, first run, finish, preemptions, migrations, rejected); palexplain -job has the per-event timeline")
		asJSON     = flag.Bool("json", false, "print aggregate metrics as JSON")
		scenPath   = flag.String("scenario", "", "run a declarative scenario spec (JSON) instead of the flag-built configuration")
		dumpTrace  = flag.String("dump-trace", "", "save the run's workload as JSON for replay via a file-sourced spec")
		metricsDir = flag.String("metrics", "", "collect telemetry and dump the run's series (CSV) and payload (JSON) into this directory")
		decisions  = flag.Bool("decisions", false, "record the decision trace (internal/decision); with -metrics, the trace is archived next to the payload for palexplain")
		storeDir   = flag.String("store", "", "persistent result-store directory: repeat runs of the same configuration load from disk instead of simulating")
		journalDir = flag.String("journal", "", "append this run's execution journal (task record, store latency, summary) into this directory for palreport -journal")
		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile to this file (flushed on clean exit)")
		memProfile = flag.String("memprofile", "", "write a Go heap profile to this file on clean exit")
	)
	flag.Parse()

	out := outputFlags{
		asJSON: *asJSON, events: *events, utilize: *utilize,
		metricsDir: *metricsDir, decisions: *decisions,
	}
	built, err := prepare(cf, *scenPath, out)
	if err != nil {
		fatal(2, err)
	}

	sess, err := cli.Open("palsim", cli.Flags{
		Workers: 1, CacheCap: 1, Store: *storeDir, Journal: *journalDir,
		CPUProfile: *cpuProfile, MemProfile: *memProfile,
	})
	if err != nil {
		fatal(2, err)
	}
	runSpec(os.Stdout, sess, built, *dumpTrace, out)
	finish(os.Stderr, sess)
}

// configFlags are the simulation-shaping flags, which lower into a
// scenario spec.
type configFlags struct {
	trace, policy, sched string
	workload, jobs       int
	nodes                int
	load, lacross        float64
	perModel             bool
	seed                 uint64
}

// defaults are the configuration flags' default values.
var defaults = configFlags{
	trace: "sia", workload: 1, load: 10, jobs: 800, policy: "pal", sched: "fifo",
	lacross: 1.5, seed: 0xE4B,
}

// spec lowers the flags into the scenario spec they describe. The
// name labels the run like the archive files it writes:
// <trace>-<policy>-<sched>.
func (c configFlags) spec() (*scenario.Spec, error) {
	// A zero in a spec selects the default; as a flag value it is out of
	// range, so it is rejected instead of silently running the default.
	if c.workload < 1 || c.load <= 0 || c.jobs < 1 || c.lacross < 1 || c.seed == 0 {
		return nil, fmt.Errorf("out-of-range flag: want -workload >= 1, -load > 0, -jobs >= 1, -lacross >= 1 and -seed != 0")
	}
	s := &scenario.Spec{
		Seed:     c.seed,
		Cluster:  scenario.ClusterSpec{Nodes: c.nodes},
		Policy:   scenario.PolicySpec{Name: c.policy},
		Sched:    scenario.SchedSpec{Name: c.sched},
		Locality: scenario.LocalitySpec{Lacross: c.lacross, PerModel: c.perModel},
	}
	var traceName string
	switch c.trace {
	case "sia":
		s.Workload = scenario.WorkloadSpec{Source: "sia-philly", Workload: c.workload}
		traceName = fmt.Sprintf("sia-philly-%d", c.workload)
		if s.Cluster.Nodes == 0 {
			s.Cluster.Nodes = 16
		}
	case "synergy":
		s.Workload = scenario.WorkloadSpec{Source: "synergy", JobsPerHour: c.load, NumJobs: c.jobs}
		traceName = fmt.Sprintf("synergy-%.1fjph", c.load)
		if s.Cluster.Nodes == 0 {
			s.Cluster.Nodes = 64
		}
	default:
		return nil, fmt.Errorf("unknown trace family %q (want sia or synergy)", c.trace)
	}
	s.Name = fmt.Sprintf("%s-%s-%s", traceName, c.policy, c.sched)
	return s, nil
}

// loadSpec reads the -scenario spec file. The spec owns the whole
// configuration; a configuration flag alongside it would be silently
// ignored, so the combination is rejected.
func loadSpec(path string) (*scenario.Spec, error) {
	conflicting := map[string]bool{
		"trace": true, "workload": true, "load": true, "jobs": true,
		"policy": true, "sched": true, "nodes": true, "lacross": true,
		"per-model-lacross": true, "seed": true,
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if conflicting[f.Name] && err == nil {
			err = fmt.Errorf("-%s conflicts with -scenario (the spec sets it)", f.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	return scenario.LoadFile(path)
}

// outputFlags are the output-shaping flags every run honors.
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

// prepare readies the run's spec: the -scenario file at path, or else
// the one the configuration flags describe. -events, -util, -metrics
// and -decisions are output-shaping flags, not configuration, so they
// are honored by switching the spec's metrics and decisions blocks on
// (with a re-Normalize so the forced spec canonicalizes — and
// cache-keys — exactly like a file that enabled them). The spec is
// then validated and built, and its policy and scheduler names are
// resolved, so every configuration error surfaces before the session
// creates a journal or a store.
func prepare(cf configFlags, path string, out outputFlags) (*scenario.Built, error) {
	var (
		spec *scenario.Spec
		err  error
	)
	if path != "" {
		spec, err = loadSpec(path)
	} else {
		spec, err = cf.spec()
	}
	if err != nil {
		return nil, err
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
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	built, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// Lowering builds the named policies; the configs are discarded.
	if _, err := built.Config(); err != nil {
		return nil, err
	}
	if built.Forked() {
		if _, err := built.WarmupConfig(); err != nil {
			return nil, err
		}
	}
	return built, nil
}

// runSpec runs the built spec as the session pool's one task under its
// content-addressed key — the cache loads a stored result instead of
// simulating, persists a fresh one, and degrades to simulating when the
// store fails — then saves the workload (-dump-trace), archives the
// telemetry (-metrics) and prints the report. It returns the result for
// tests.
func runSpec(w io.Writer, s *cli.Session, built *scenario.Built, dumpTrace string, out outputFlags) *sim.Result {
	spec := built.Spec
	built.Counters = s.Engine
	if dumpTrace != "" {
		saveTrace(built, dumpTrace)
	}
	key := built.Key()
	res, err := s.Pool.Run(context.Background(), []runner.Task{{
		Key: key, Label: "scenario " + spec.Name, Run: built.Run,
		Counters: func() *sim.Counters { return s.Engine },
	}})
	if err != nil {
		fatal(1, err)
	}
	if out.metricsDir != "" {
		dumpMetrics(out.metricsDir, spec.Name, res[0], key)
	}
	header := fmt.Sprintf("scenario=%s trace=%s jobs=%d cluster=%d GPUs policy=%s sched=%s lacross=%.2f key=%s",
		spec.Name, built.Trace.Name, len(built.Trace.Jobs), built.Topo.Size(),
		spec.Policy.Name, spec.Sched.Name, spec.Locality.Lacross, key[:12])
	report(w, header, res[0], out)
	return res[0]
}

// saveTrace writes the built workload to path for replay through a
// file-sourced spec.
func saveTrace(built *scenario.Built, path string) {
	f, err := os.Create(path)
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
	fmt.Fprintf(os.Stderr, "palsim: saved %d-job workload to %s\n", len(built.Trace.Jobs), path)
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
