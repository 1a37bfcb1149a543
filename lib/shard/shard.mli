(** A sharded MPMC router over N internal wait-free queues.

    One [Wfqueue] saturates a single tail/head cache line: every
    operation in the machine meets at the same two FAA words, which is
    the paper's own scalability ceiling (§6 shows throughput flat
    beyond the first socket).  The standard deployment answer — Jiffy
    (Adas & Friedman, arXiv:2010.14189) builds its motivation on it,
    and "No Cords Attached" (Motiwala 2025) measures the win — is to
    spread the traffic over S independent shards and accept a {e
    relaxed} FIFO contract.  This module is that router: S internal
    queues behind the one-queue API, FAA-based producer affinity with
    periodic rebalancing, round-robin consumer dispatch, and an
    optional bounded mode with backpressure.

    {1 Ordering contract (d-bounded relaxed FIFO)}

    Two guarantees, one unconditional and one quantitative:

    - {b Per-shard FIFO always holds.}  Each shard is a linearizable
      wait-free FIFO queue; two values routed to the same shard are
      dequeued in their enqueue order.  A single producer that is not
      rebalanced between two enqueues therefore keeps its program
      order.
    - {b Global order is d-bounded.}  For a dequeued value [a], the
      number of values enqueued strictly after [a] (in real time) yet
      dequeued strictly before it is at most [d], where
      [d = (S-1) * (L + C*B)]: [S] shards, [L] the maximum depth any
      shard reaches while [a] is queued, [C] the maximum number of
      concurrent dequeuers and [B] the maximum batch size.  With
      [S = 1] this degenerates to [d = 0]: strict FIFO, the single
      queue's contract.  DESIGN.md §8 has the proof sketch; the
      [Lincheck.Relaxed_fifo] checker verifies both clauses on
      simulated traces.

    Values never cross shards after routing, so the conservation
    property (every value dequeued exactly once, none invented) is
    inherited from the shards verbatim.

    {1 Bounded mode}

    [create ~capacity] bounds each shard at [capacity] values
    ({e approximately} — the check reads the shard's tail-head length
    racily, so brief overshoot by in-flight producers is possible;
    the bound is backpressure, not an admission-control invariant).
    A full home shard first triggers an affinity rebalance over all
    S shards; only when every shard is full does the producer block
    ({!Router.enqueue}), fail softly ({!Router.try_enqueue}) or raise
    ({!Router.enqueue_exn} raising {!Router.Would_block}). *)

(** The queue interface the router composes: what every
    [Wfqueue_algo.Make] instantiation ([Wfqueue], [Wfqueue_obs],
    [Wfqueue_inject], the simulated queue) and every specialized
    [Topology] variant provides.  [dequeue_or] and [deq_batch_into]
    are the allocation-free entry points (physically-distinct
    [default] contract; see [Wfqueue.dequeue_or]). *)
module type QUEUE = sig
  type 'a t
  type 'a handle

  val create :
    ?patience:int ->
    ?segment_shift:int ->
    ?max_garbage:int ->
    ?reclamation:bool ->
    ?segment_cap:int ->
    unit ->
    'a t
  (** [segment_cap] selects the queue's own bounded-memory mode where
      supported (see [Wfqueue.create]); implementations without one
      may ignore it or refuse it, but must accept the argument. *)

  val register : 'a t -> 'a handle
  val retire : 'a t -> 'a handle -> unit
  val enqueue : 'a t -> 'a handle -> 'a -> unit

  val try_enqueue : 'a t -> 'a handle -> 'a -> bool
  (** Admission-checked enqueue: [false] means the queue refused the
      value right now (bounded-memory admission); an unbounded queue
      always admits.  A [false] must have no protocol footprint. *)

  val dequeue : 'a t -> 'a handle -> 'a option
  val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
  val enq_batch : 'a t -> 'a handle -> 'a array -> unit

  val try_enq_batch : 'a t -> 'a handle -> 'a array -> bool
  (** All-or-nothing admission for a whole batch. *)

  val deq_batch : 'a t -> 'a handle -> int -> 'a option array
  val deq_batch_into : 'a t -> 'a handle -> 'a array -> default:'a -> int
  val approx_length : 'a t -> int
  val snapshot : 'a t -> Obs.Snapshot.t
  val reset_stats : 'a t -> unit
end

module Router (A : Primitives.Atomic_prims.S) (Q : QUEUE) : sig
  type 'a t
  type 'a handle

  exception Would_block
  (** Raised by {!enqueue_exn} when every shard refused the value —
      the {e same exception value} as [Wfqueue.Would_block], so one
      handler covers both the router's [~capacity] bound and a bounded
      shard's segment cap, in any composition. *)

  val create :
    ?shards:int ->
    ?capacity:int ->
    ?rebalance_every:int ->
    ?patience:int ->
    ?segment_shift:int ->
    ?max_garbage:int ->
    ?reclamation:bool ->
    ?segment_cap:int ->
    unit ->
    'a t
  (** [create ()] builds a router over [shards] (default 2) internal
      queues, each created with the given queue parameters.

      [capacity] bounds each shard (approximately, see the module
      header); omitted means unbounded.

      [segment_cap] is forwarded to every shard's [Q.create],
      switching each shard into its own bounded-memory mode (a {e
      hard} per-shard segment bound, [Wfqueue.create]); the router's
      rotation then treats a shard's admission refusal exactly like a
      full [capacity] shard, so the two bounds compose into one
      backpressure policy ({!enqueue} blocks, {!try_enqueue} reports
      [false], {!enqueue_exn} raises {!Would_block}).

      [rebalance_every] (default 64) is the producer-affinity
      rebalance period: after that many values a handle draws a fresh
      FAA ticket from the global assignment counter, so a long-lived
      producer migrates and static skew from the initial assignment
      washes out.

      @raise Invalid_argument on [shards < 1] or [capacity < 1]. *)

  val register : 'a t -> 'a handle
  (** A router handle for the calling domain: registers one handle on
      {e every} shard (dequeues scan all shards) and draws the home
      shard for enqueues from the FAA assignment counter.  Same
      ownership rule as the underlying queue: one domain per handle,
      never concurrent. *)

  val retire : 'a t -> 'a handle -> unit
  (** Retire the handle on every shard (see [Wfqueue.retire] for the
      soundness conditions). *)

  val enqueue : 'a t -> 'a handle -> 'a -> unit
  (** Enqueue to the home shard.  Unbounded: wait-free (the shard's
      own guarantee).  Bounded: blocks — parking via [A.cpu_relax],
      one scheduler yield per probe under simsched — until some shard
      has room, rebalancing the home shard onto it. *)

  val enqueue' : 'a t -> 'a handle -> 'a -> int
  (** {!enqueue} returning the shard the value went to — how the
      relaxed-FIFO checker attributes values to shards. *)

  val try_enqueue : 'a t -> 'a handle -> 'a -> bool
  (** Bounded-mode soft enqueue: [false] instead of blocking when all
      [S] shards are at capacity (counted in {!blocked}).  Equivalent
      to {!enqueue} (always [true]) when unbounded. *)

  val enqueue_exn : 'a t -> 'a handle -> 'a -> unit
  (** {!try_enqueue} raising {!Would_block} instead of returning
      [false]. *)

  val dequeue : 'a t -> 'a handle -> 'a option
  (** Dequeue from the first non-empty shard in rotation order,
      starting at a shard chosen by a global round-robin FAA ticket
      (so concurrent consumers spread instead of convoying).  [None]
      only after a full scan in which {e every} shard answered EMPTY
      through a real dequeue — each shard was individually observed
      empty at some point inside this call's interval. *)

  val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
  (** Allocation-free {!dequeue}: the same rotation scan through the
      shards' [dequeue_or], returning [default] only after every shard
      answered EMPTY through a real dequeue.  The caller must pick a
      [default] physically distinct from any stored value (for
      immediates like [int], any value outside the stored domain, e.g.
      [min_int]). *)

  val enq_batch : 'a t -> 'a handle -> 'a array -> unit
  (** The whole batch goes to the home shard with one tail FAA
      ([Wfqueue.enq_batch]), so a batch preserves its internal order
      under the per-shard FIFO clause.  Counts as
      [Array.length vs] values toward the rebalance period and the
      capacity check. *)

  val enq_batch' : 'a t -> 'a handle -> 'a array -> int
  (** {!enq_batch} returning the receiving shard. *)

  val try_enq_batch : 'a t -> 'a handle -> 'a array -> bool
  val enq_batch_exn : 'a t -> 'a handle -> 'a array -> unit

  val deq_batch : 'a t -> 'a handle -> int -> 'a option array
  (** Batch dequeue from the first productive shard in rotation: a
      shard that looks non-empty receives the full [k]-ticket batch
      ([Wfqueue.deq_batch]); a shard that looks empty is probed with a
      single ticket so an imprecise [approx_length] cannot fabricate
      an EMPTY.  Returns the first shard answer containing at least
      one value, or an all-[None] array once every shard really
      answered EMPTY. *)

  val deq_batch_into : 'a t -> 'a handle -> 'a array -> default:'a -> int
  (** Allocation-free {!deq_batch}: values land bare in the caller's
      buffer (compacted to the front, remainder filled with
      [default]), returning how many were written.  Same probing
      discipline as {!deq_batch} and same [default] contract as
      {!dequeue_or}.  With the shards' own [deq_batch_into] the whole
      router round trip allocates nothing. *)

  (** {1 Introspection} *)

  val shards : 'a t -> int
  val home_shard : 'a handle -> int
  (** The shard this handle currently enqueues to. *)

  val approx_length : 'a t -> int
  (** Sum of the shards' approximate lengths. *)

  val shard_length : 'a t -> int -> int

  val steals : 'a t -> int
  (** Dequeues served by a shard other than their rotation start —
      each one is a unit of cross-shard reordering pressure. *)

  val rebalances : 'a t -> int
  (** Producer-affinity migrations (periodic and capacity-forced). *)

  val blocked : 'a t -> int
  (** Bounded-mode enqueue attempts that found every shard full. *)

  val d_bound : 'a t -> dequeuers:int -> batch:int -> depth:int -> int
  (** The documented reordering bound [(S-1) * (depth + dequeuers *
      batch)] for this router's [S]; [0] when [S = 1].  [depth] is the
      maximum per-shard backlog the workload reaches (for a
      fill-then-drain phase test, the per-shard enqueue count). *)

  val snapshot : 'a t -> Obs.Snapshot.t
  (** The S per-shard snapshots folded into one queue-level view
      ({!Obs.Snapshot.fold}). *)

  val shard_snapshots : 'a t -> Obs.Snapshot.t array
  val reset_stats : 'a t -> unit

  val pp_snapshot_table : Format.formatter -> 'a t -> unit
  (** One row per shard (ops, slow paths, segments) plus the router
      counters — the footprint [repro shard]'s storm prints. *)
end

(** {1 Instantiations} *)

module Wf : module type of Router (Primitives.Atomic_prims.Real) (Wfq.Wfqueue)
(** Production router: hardware atomics over the production queue
    (probes and injection compiled out). *)

module Wf_obs : module type of Router (Primitives.Atomic_prims.Real) (Wfq.Wfqueue_obs)
(** Instrumented router for telemetry runs (event-tier counters on). *)

module Storm : module type of Router (Primitives.Atomic_prims.Real) (Wfq.Wfqueue_inject)
(** Fault-injection router for the storm driver: probes and injection
    points compiled in (transparent until a controller is
    installed). *)

module Adaptive : module type of Router (Primitives.Atomic_prims.Real) (Topology.Adaptive)
(** Topology-adaptive shards: each shard starts on the specialized
    SPSC variant and degrades (SPSC -> MPSC/SPMC -> general) as the
    router's traffic reveals producer/consumer roles on it.  The
    Router text is reused verbatim — [Topology.Adaptive] satisfies
    {!QUEUE} — so single-threaded deployments pay the cheap variant
    and multi-threaded ones converge to the general queue per shard. *)

module Adaptive_storm :
    module type of Router (Primitives.Atomic_prims.Real) (Topology.Adaptive_inject)
(** Fault-injection build of {!Adaptive}: kills and parks land in the
    specialized variants' windows, in the adaptive switch window
    ([Topo_switch_draining]) and in the general backend's windows. *)
