package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/vprof"
)

// placeOpts toggles the ablation switches of the two-pass loop.
type placeOpts struct {
	// noClassPriority keeps the scheduling order instead of sorting the
	// prefix by class (the "placement priority off" ablation).
	noClassPriority bool
	// noHysteresis re-places every job fresh each round (the paper's
	// plain Non-Sticky semantics, used by the hysteresis ablation).
	noHysteresis bool
}

// hysteresis is the scratch state of placeWithHysteresis, owned by one
// placer and reused across rounds so a placement round allocates only the
// allocations it hands out. The returned map is out itself, cleared on
// the next call (the sim.Placer contract allows this).
type hysteresis struct {
	ordered  []*sim.Job
	kept     [][]cluster.GPUID // kept[i] is ordered[i]'s held previous allocation
	reserved []cluster.GPUID
	out      map[int][]cluster.GPUID
}

// placeWithHysteresis is the two-pass allocation loop shared by PM-First
// and PAL.
//
// Both policies are Non-Sticky so jobs *can* migrate to better GPUs every
// round, but a migration costs a checkpoint/restore, so a rational policy
// only moves a job when the move strictly improves its allocation. The
// first pass tentatively re-reserves every job's previous GPUs (when they
// are still intact), preventing other jobs from stealing them mid-round;
// the second pass walks jobs in placement-priority order, computes the
// fresh optimal allocation, and migrates only if the fresh pick is
// strictly better under the policy's quality metric (max PM score for
// PM-First, LV-product for PAL; lower is better).
//
// When every job was running and keeps its previous GPUs, each job's
// fresh pick saw every other job on its previous GPUs, whatever the
// processing order — so the same job set returns the same allocations
// in any order. That fixpoint is what lets both policies report
// sim.DeterministicPlacer (unless hysteresis is off: plain non-sticky
// picks depend on the order).
//
// fresh must return a valid allocation given the cluster's current free
// state; it may return policy-owned scratch, valid until its next call,
// which is copied only when the job adopts it. quality evaluates an
// allocation for a job.
func (h *hysteresis) placeWithHysteresis(
	c *cluster.Cluster,
	need []*sim.Job,
	opts placeOpts,
	fresh func(*sim.Job) []cluster.GPUID,
	quality func(*sim.Job, []cluster.GPUID) float64,
) map[int][]cluster.GPUID {
	ordered := need
	if !opts.noClassPriority {
		h.ordered = appendByPlacementPriority(h.ordered[:0], need)
		ordered = h.ordered
	}

	// Pass 1: tentatively hold every job's previous allocation.
	kept := h.kept[:0]
	for _, j := range ordered {
		var prev []cluster.GPUID
		if !opts.noHysteresis {
			if prev = reusablePrev(c, j); prev != nil {
				c.Allocate(j.Spec.ID, prev)
			}
		}
		kept = append(kept, prev)
	}

	// Pass 2: fresh-vs-previous decision per job, in priority order.
	if h.out == nil {
		h.out = make(map[int][]cluster.GPUID, len(need))
	}
	clear(h.out)
	reserved := h.reserved[:0]
	for i, j := range ordered {
		prev := kept[i]
		if prev != nil {
			c.Release(prev) // expose the job's own GPUs to its fresh pick
		}
		alloc := fresh(j)
		if prev != nil && quality(j, prev) <= quality(j, alloc) {
			alloc = prev
		} else {
			alloc = slices.Clone(alloc)
		}
		c.Allocate(j.Spec.ID, alloc)
		reserved = append(reserved, alloc...)
		h.out[j.Spec.ID] = alloc
	}
	c.Release(reserved) // hand ownership back to the engine
	h.kept, h.reserved = kept[:0], reserved[:0]
	return h.out
}

// appendByPlacementPriority appends need to dst sorted stably by class,
// class A (0) first, with one pass over need per class present. The input
// order is the scheduling order, so within a class the scheduling
// policy's priorities are preserved; across classes the placement
// priority of §III-B applies. The caller already truncated the queue at
// cluster size, so every job here is guaranteed to be scheduled this
// round — reordering cannot starve anyone.
func appendByPlacementPriority(dst, need []*sim.Job) []*sim.Job {
	if len(need) == 0 {
		return dst
	}
	lo, hi := need[0].Spec.Class, need[0].Spec.Class
	for _, j := range need[1:] {
		lo, hi = min(lo, j.Spec.Class), max(hi, j.Spec.Class)
	}
	for class := lo; class <= hi; class++ {
		for _, j := range need {
			if j.Spec.Class == class {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// reusablePrev returns the job's previous allocation if it is intact and
// entirely free, else nil.
func reusablePrev(c cluster.View, j *sim.Job) []cluster.GPUID {
	prev := j.PrevAlloc
	if len(prev) != j.Spec.Demand {
		return nil
	}
	for _, g := range prev {
		if !c.IsFree(g) {
			return nil
		}
	}
	return prev
}

// maxScore returns the worst PM score in the allocation for the class.
func maxScore(s vprof.Scorer, class vprof.Class, gpus []cluster.GPUID) float64 {
	m := 0.0
	for _, g := range gpus {
		if v := s.Score(class, int(g)); v > m {
			m = v
		}
	}
	return m
}
