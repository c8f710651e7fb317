package sim

// Scheduler and placer capability interfaces for the incremental engine
// core.
//
// The engine's round loop runs in four stepping regimes (documented in
// docs/ARCHITECTURE.md "Engine stepping"): the naive reference loop, the
// idle-gap skip, the sparse fast-forward, and the dense bulk advance.
// The dense regime — skipping busy rounds whose scheduling decision
// provably repeats the previous one even though jobs are waiting — needs
// two facts the Scheduler interface alone cannot supply: that the
// ordering is a strict total order the engine may maintain incrementally
// instead of re-sorting, and a per-job bound on how long the
// running/waiting partition stays put. Schedulers opt in by implementing
// the interfaces below; a scheduler that implements neither simply keeps
// the pre-incremental behavior (full re-sort every round, dense bulk
// advance only when nothing is waiting). Non-sticky placers opt into the
// placement skip and bulk advance through DeterministicPlacer.

// TotalOrderScheduler is implemented by schedulers whose Order is the
// unique sequence induced by a strict total order over jobs. The
// contract: Less is irreflexive, transitive, and total (any two distinct
// jobs compare, typically via a final job-ID tiebreak), it depends on
// `now` and job state only through the values Order itself consults, and
// Order(jobs, now) returns exactly the jobs sorted by Less.
//
// The engine uses Less to keep the previous round's ordering alive
// across rounds in which the active set's membership did not change: it
// verifies sortedness in O(n) and re-sorts in place only when priorities
// actually crossed. Because the order is total, the maintained sequence
// is identical to what a fresh Order call would return, so the
// optimization cannot perturb results (the byte-identity suites pin
// this).
type TotalOrderScheduler interface {
	Scheduler
	Less(a, b *Job, now float64) bool
}

// PartitionStableScheduler is implemented by schedulers that can bound,
// per running job, how much attained service the job may accumulate
// before the scheduler's ordering could first interleave it with a
// waiting job (or move it across an internal queue boundary, which
// amounts to the same thing). This is the dense-trace generalization of
// the sparse fast-forward eligibility: with a sticky placer, no
// arrivals and no completions, the schedulable prefix — and therefore
// every placement decision — provably repeats while every running job's
// Attained stays strictly below its ceiling.
//
// AttainedCeilings fills ceilings[i] with the bound for running[i];
// math.Inf(1) means the partition can never flip on that job's account.
// It is only called with len(waiting) > 0 (the no-waiting case needs no
// scheduler cooperation) and may assume the engine-guaranteed invariant
// that every running job currently orders ahead of every waiting job.
// Waiting jobs are frozen during a bulk span (the engine only advances
// placed jobs), so their keys are constants. Bounds may be conservative
// (too small only costs skipped-span length, never correctness): the
// engine hands control back to the full loop — real sort, real prefix,
// real placement — before executing any round in which a running job's
// Attained has reached its ceiling.
type PartitionStableScheduler interface {
	Scheduler
	AttainedCeilings(running, waiting []*Job, ceilings []float64)
}

// DeterministicPlacer is implemented by non-sticky placers with two
// properties. PlaceRound is a pure function of the need sequence, each
// job's PrevAlloc and the cluster's free state: no RNG and no state that
// evolves across rounds. And a call that leaves every job on its
// previous GPUs is a fixpoint: the same need *set*, in any order, with
// the same previous allocations, returns the same allocations again.
// Deterministic reports whether both hold for this instance (an ablation
// switch or a run-time-learning scorer may void them).
//
// The engine uses it to treat a non-sticky placer as sticky once
// placement has settled: after a place() call in which no job started,
// resumed or migrated, it skips the placement phase and bulk advances
// while the running set is unchanged, until a completion or a later
// place() that changes an allocation. The settled state is taken only
// with fast-forwarding on, without an Observer (whose scorer may learn
// between rounds) and without a decision sink (the naive loop records
// every round's placements); TestSettledPlacementActuallyEngages pins
// both the engagement and these exclusions.
type DeterministicPlacer interface {
	Placer
	Deterministic() bool
}
