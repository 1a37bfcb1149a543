(** Deterministic fault injection for the queue's protocol paths.

    The paper's headline claim is wait-freedom: every operation
    completes in a bounded number of its own steps even when other
    threads stall or die at the worst possible moment (wCQ makes the
    same adversarial regime the bar, arXiv:2201.02179).  Cooperative
    tests never exercise that regime — a stall has to land *between*
    two specific atomic accesses to be adversarial, and hardware
    preemption lands there once in millions of operations.

    This module names those windows as {e injection points} and lets a
    harness deliberately stall ([Park]) or kill ([Die]) a victim
    thread exactly there.  The queue algorithm takes an injector as a
    functor argument (exactly like the {!Obs.Probe}).  On the
    production build the {!Disabled} instantiation never fires
    (test_inject's "injector wiring per build" runs it under an
    always-park controller and sees no hit) and allocates nothing
    (test_alloc's exact rows), but each site's gate still costs a load
    from the functor argument and a branch: OCaml 5.1.1 without
    flambda does not specialise the functor (DESIGN.md §9).
    {!Enabled} consults a globally installed controller.

    Faults are replayable: {!Plan} derives every decision from a
    {!Primitives.Splitmix64} seed, so a failing storm reprints as
    "seed 0x…" and reruns identically (exactly identically under the
    [simsched] scheduler, which controls the interleaving too).

    Thread-safety: {!install}/{!remove} publish via an atomic;
    {!Plan.decide} and the per-point counters are safe to call from
    any number of domains. *)

(** {1 Injection points}

    Each constructor names one adversarial window in
    [Wfqueue_algo.Make].  The map (DESIGN.md §7):

    - [Enq_fast_after_faa]: a fast-path enqueuer holds a tail ticket
      but has not yet deposited its value — the cell it abandoned must
      be poisoned by dequeuers, never waited on.
    - [Enq_slow_published]: a slow-path enqueue request is visible;
      helping must complete it even if the owner never runs again.
    - [Enq_slow_pre_commit]: the request is claimed for a cell but the
      value is not yet committed.
    - [Deq_fast_after_faa]: a dequeuer consumed a head ticket but has
      not yet helped/claimed its cell.
    - [Deq_slow_published]: a dequeue request is visible; peers must
      finish it.
    - [Help_enq_pre_claim]: a helper is about to claim a peer's
      enqueue request for a cell.
    - [Help_deq_pre_close]: a helper is about to close a peer's
      dequeue request.
    - [Cleanup_token_held]: the cleaner holds the cleanup token
      ([I = -1]); dying here must not wedge registration or future
      cleanups.
    - [Hazard_published]: a hazard pointer is set but not yet
      re-validated — the window the hazard-pointer acquire protocol
      defends.

    The [Pool] class covers the bounded-mode segment freelist
    (DESIGN.md §11):

    - [Seg_pool_acquire]: a bounded-mode operation is waiting on cap
      pressure and about to re-poll — either a blocking enqueue parked
      hazard-free at the admission line, or a segment request that
      found the pool empty and the budget spent (the admission
      overshoot path).  The backpressure window: dying here must leave
      the budget accounting exact (the victim holds no reservation),
      and parking here must not wedge concurrent acquires.
    - [Seg_pool_release]: the cleaner detached a retired segment and
      reset it but has not yet pushed it to the freelist — dying here
      leaks that segment's capacity (documented: a crashed cleaner
      costs cap slots, never safety), and must not let the segment
      become reachable from two chains.

    The [Sched] class covers the effects-based task scheduler
    (DESIGN.md §12):

    - [Sched_steal_pending]: a thief read a deque's top index and the
      task stored there but has not yet CASed top — the Chase–Lev
      claim window.  Dying here must leave the task claimable by the
      owner or another thief (the CAS never happened, so nothing is
      taken); parking here must not let a concurrent owner pop hand
      out the same task twice.
    - [Sched_park_pending]: an idle worker has registered as a sleeper
      and read the wake epoch, and has neither re-checked for work nor
      blocked — dying here is the canonical worker-death window:
      anything pushed to its deque before death must remain stealable,
      the pool must keep resolving promises with one fewer worker, and
      the registration must not outlive the worker (a stall here only
      makes pushes pay wakes meanwhile).
    - [Sched_resolve_pending]: a fiber computed a promise's result but
      has not yet CASed the state to [Done] — dying here must leave
      the promise pending and resolvable by the recovery path (the
      worker-death handler resolves it with the death exception), and
      the exactly-once guarantee must survive the retry. *)
type point =
  | Enq_fast_after_faa
  | Enq_slow_published
  | Enq_slow_pre_commit
  | Deq_fast_after_faa
  | Deq_slow_published
  | Help_enq_pre_claim
  | Help_deq_pre_close
  | Cleanup_token_held
  | Hazard_published
  | Seg_pool_acquire
  | Seg_pool_release
  | Sched_steal_pending
  | Sched_park_pending
  | Sched_resolve_pending

type cls = Enqueue | Dequeue | Helping | Cleanup | Hazard | Pool | Sched

val all_points : point list
val class_of : point -> cls
val point_name : point -> string
val class_name : cls -> string
val points_of_class : cls -> point list

(** {1 Actions} *)

type action =
  | Continue  (** no fault *)
  | Park of int
      (** stall for [n] park units before resuming (a unit is one
          {!set_park} step: a [cpu_relax] by default, one scheduler
          yield under simsched, a sleep in the storm driver) *)
  | Die  (** raise {!Killed}, simulating thread death mid-protocol *)

exception Killed of point
(** Raised out of the faulted operation by [Die].  The victim's handle
    is left exactly as a crashed thread would leave it (hazard pointer
    possibly set, request possibly pending); recover with
    [Wfqueue.retire] once the victim is known dead. *)

(** {1 The functor argument} *)

module type S = sig
  val enabled : bool
  (** Fixed per instantiation; every injection site is
      [if I.enabled then I.hit P], so the disabled build skips every
      hit at the cost of the gate's load and branch. *)

  val hit : point -> unit
end

module Disabled : S
(** [enabled = false]; [hit] is unreachable dead code. *)

module Enabled : S
(** Consults the installed controller on every hit; transparent (plain
    counter-free pass-through) while no controller is installed. *)

(** {1 Controller} *)

val install : (point -> action) -> unit
(** Install the global fault controller consulted by {!Enabled.hit}.
    The decision function must be thread-safe.  Replaces any previous
    controller. *)

val remove : unit -> unit
(** Remove the controller; subsequent hits are transparent. *)

val with_controller : (point -> action) -> (unit -> 'a) -> 'a
(** Scoped {!install}/{!remove} (also removes on exception). *)

val set_park : (int -> unit) -> unit
(** How [Park n] waits.  Default: [n] iterations of
    [Domain.cpu_relax].  The simsched suites set it to [n] scheduler
    yields so a parked fiber is descheduled, not busy; the storm
    driver sets it to a wall-clock sleep. *)

(** {1 Observed-fault counters}

    Incremented only while a controller is installed, so the enabled
    build without a controller pays one atomic load per hit. *)

type stats = { hits : int; parks : int; kills : int }

val stats : point -> stats
val total_stats : unit -> stats
val reset_stats : unit -> unit
val pp_stats : Format.formatter -> unit -> unit
(** One line per point that recorded anything. *)

(** {1 Seeded plans} *)

module Plan : sig
  type t
  (** A deterministic fault schedule: for each armed point, the plan
      fires once, at a seed-chosen hit ordinal (so the fault does not
      always land on the first visit), with a seed-chosen action. *)

  val make :
    ?park:int ->
    ?lethal:bool ->
    ?arm_window:int ->
    ?points:point list ->
    seed:int64 ->
    unit ->
    t
  (** [make ~seed ()] arms every injection point with [Park park]
      (default [park = 200]); [~lethal:true] arms [Die] instead.
      [arm_window] (default 4) bounds the hit ordinal at which each
      point fires.  [points] restricts arming (default
      {!all_points}). *)

  val decide : t -> point -> action
  (** The controller function: counts the hit against the point's
      ordinal and returns the armed action exactly once per point.
      Thread-safe. *)

  val describe : t -> string
  (** ["seed=0x2a park=200 arming point@ordinal ..."] — print this
      with any failure so the storm replays. *)
end
