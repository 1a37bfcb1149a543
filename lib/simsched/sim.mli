(** Deterministic-schedule model checking for the queue algorithm.

    The algorithm ([Wfq.Wfqueue_algo]) is a functor over its atomic
    primitives.  {!Atomic_shim} implements those primitives with plain
    single-domain cells whose every access performs a [Yield] effect;
    {!run} executes a set of fibers under a handler that captures each
    fiber at every yield and picks the next fiber to run with a seeded
    PRNG.  One [run] therefore explores one precise interleaving of
    the algorithm's atomic operations, reproducibly; sweeping seeds
    explores the schedule space far more densely than hardware
    preemption ever could, at the granularity where linearizability
    bugs live.

    {!Queue} is the queue algorithm instantiated on the shim: the
    exact algorithm text that ships in [Wfq.Wfqueue], model-checked.

    Yields performed outside {!run} are no-ops, so building queues and
    registering handles may also happen outside the scheduler. *)

module Atomic_shim : Wfq.Atomic_prims.S

module Queue : module type of Wfq.Wfqueue_algo.Make (Atomic_shim) (Obs.Probe.Enabled) (Inject.Enabled)

module Ms_queue : module type of Baselines.Msqueue_algo.Make (Atomic_shim) (Obs.Probe.Enabled)
(** The MS-Queue baseline on the same simulated atomics, for
    differential schedule testing. *)

module Lcrq : module type of Baselines.Lcrq_algo.Make (Atomic_shim) (Obs.Probe.Enabled)
(** LCRQ (rings + list) on simulated atomics: the close/fixState
    logic is the subtlest part of any baseline, so it gets schedule
    exploration too. *)

module Sched_core :
    module type of Sched.Sched_algo.Make (Atomic_shim) (Obs.Probe.Enabled) (Inject.Enabled)
(** The scheduler's lock-free core — promises, the Chase–Lev
    work-stealing deque and the help-while-waiting loop — on simulated
    atomics: the steal-vs-pop, resolve-vs-await and help-vs-steal races
    explored by test/test_sched.ml run here. *)

type stats = {
  scheduling_decisions : int;
  max_steps_hit : bool; (* true when the step limit stopped the run *)
  blocked : int; (* fibers left in {!block_until} when no fiber could run *)
}

exception Fiber_failure of int * exn
(** Fiber index and the exception it raised. *)

val run : ?seed:int64 -> ?max_steps:int -> (unit -> unit) array -> stats
(** [run ~seed fibers] drives every fiber to completion under one
    random schedule.  [max_steps] (default 10_000_000) bounds total
    scheduling decisions: hitting it means a fiber did not terminate —
    for a wait-free algorithm, a livelock bug — and is reported in the
    result rather than raised, so tests can assert on it.
    Deterministic: equal seeds and fibers yield equal schedules. *)

val now : unit -> int
(** The current scheduling step, usable as a logical timestamp from
    inside fibers (monotone within one run; reset to 0 by {!run}). *)

val yield : unit -> unit
(** One scheduler preemption point; no-op outside {!run}.  Lets code
    that is not built on {!Atomic_shim} (e.g. an [Inject.set_park]
    implementation, so a parked fiber is descheduled rather than
    busy) participate in the simulated schedule. *)

val block_until : (unit -> bool) -> unit
(** [block_until p] deschedules the calling fiber until [p ()] holds:
    the model of a condition-variable wait, whose predicate the waiter
    re-checks under its mutex.  The scheduler evaluates [p] between
    steps, outside every fiber, so [p]'s {!Atomic_shim} reads are not
    preemption points.  A run in which every live fiber is blocked
    stops there and reports them in [blocked] — a lost wakeup, when
    one of them had work waiting.  Only a fiber of a run may block. *)

val current_fiber : unit -> int
(** Index (into {!run}'s fiber array) of the fiber currently
    scheduled; [-1] outside a run.  Exact when called from a fiber's
    own steps — which is where fault-injection controllers run — so a
    plan can say "fiber [k] is the victim". *)

type exploration = {
  schedules : int;
  exhausted : bool; (* the whole bounded space was covered *)
  truncated_runs : int; (* runs that hit max_steps *)
}

val explore :
  ?max_schedules:int ->
  ?max_steps:int ->
  ?preemptions:int ->
  make_fibers:(unit -> (unit -> unit) array) ->
  check:(unit -> unit) ->
  unit ->
  exploration
(** Systematic depth-first enumeration of schedules with at most
    [preemptions] (default 2) involuntary context switches — the
    standard bounding under which most concurrency bugs have small
    witnesses (both protocol bugs this harness found need ≤ 3).
    [make_fibers] must build fresh state for each schedule; [check]
    runs after each schedule and should raise (e.g. an Alcotest
    failure) on a violated invariant.  Stops after [max_schedules]
    (default 100_000) or when the bounded space is exhausted. *)
