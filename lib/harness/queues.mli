(** Uniform access to every queue implementation under benchmark.

    Each {!factory} creates fresh queue {!instance}s; each instance
    hands out per-domain {!ops} (registering a handle where the
    implementation needs one).  Payloads are [int], as in the paper's
    benchmarks. *)

type ops = {
  enqueue : int -> unit;
  dequeue : unit -> int option;
  dequeue_or : int -> int;
      (* dequeue with an EMPTY default instead of the [Some] box.
         Native (allocation-free) for the WF family; derived from
         [dequeue] — same boxing, different shape — for baselines
         without a word-returning path, so alloc comparisons across
         [dequeue_or] are only meaningful for queues advertising it *)
  release : unit -> unit;
      (* handle retirement hook: called by the runner when the owning
         domain is done, so implementations with registration (the WF
         queues) can retire the handle and recycle its ring slot; a
         no-op for the other baselines *)
}

val make_ops :
  ?dequeue_or:(int -> int) ->
  enqueue:(int -> unit) ->
  dequeue:(unit -> int option) ->
  release:(unit -> unit) ->
  unit ->
  ops
(** Assemble an {!ops}, deriving [dequeue_or] from [dequeue] (option
    round trip included) when no native one is given. *)

type instance = {
  iname : string;
  register : unit -> ops; (* called once per participating domain *)
  op_stats : unit -> Wfq.Op_stats.t option; (* path breakdown, WF only *)
  reset_op_stats : unit -> unit;
  snapshot : unit -> Obs.Snapshot.t option;
      (* full telemetry snapshot (counters + segment/handle gauges),
         WF only; the event tier is non-zero only for [wf_obs] *)
}

type factory = {
  name : string; (* key used on the command line, e.g. "wf-10" *)
  description : string;
  is_real_queue : bool; (* false for the FAA microbenchmark *)
  make : unit -> instance;
}

val wf : ?patience:int -> ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool ->
  ?name:string -> unit -> factory
(** The paper's queue with explicit parameters (used by ablations). *)

val wf_obs : ?patience:int -> ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool ->
  ?name:string -> unit -> factory
(** Same queue, instrumented instantiation ([Wfq.Wfqueue_obs]): the
    probe's event tier is compiled in.  Its throughput delta against
    {!wf} is the measured cost of instrumentation. *)

val wf_int : ?patience:int -> ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool ->
  ?name:string -> unit -> factory
(** The int-specialized facade ([Wfq.Wfqueue_int]): same compiled
    queue as {!wf}, with dequeues routed through the allocation-free
    [dequeue_or] (EMPTY = [min_int]).  Its delta against {!wf} prices
    the generic API's option box. *)

val wf_shard :
  ?shards:int ->
  ?patience:int ->
  ?capacity:int ->
  ?rebalance_every:int ->
  ?name:string ->
  unit ->
  factory
(** Sharded router ([Shard.Wf]) over [shards] production queues:
    d-bounded relaxed FIFO, optionally bounded at [capacity] values
    per shard.  [op_stats]/[snapshot] fold the per-shard telemetry. *)

val wf_batch : ?batch:int -> ?patience:int -> ?name:string -> unit -> factory
(** One production queue driven through [enq_batch]/[deq_batch] with a
    client-side buffering facade: one tail FAA per [batch] enqueues,
    one head FAA per up-to-[batch] dequeues.  Values may sit in the
    per-handle buffer until the next dequeue or [release] flushes
    them, so cross-thread visibility is batch-delayed — the documented
    trade of the batching deployment shape. *)

val wf_spsc :
  ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool -> ?name:string -> unit -> factory
(** The specialized SPSC variant ([Topology.Spsc]): plain load/store
    cell handshake, no FAA or CAS on the hot path.  The single bench
    handle legally holds both roles; a concurrent second producer or
    consumer would be rejected by the role claim, so this factory is
    in {!all} (single-threaded pair) but not {!figure2_set} — its
    role-correct multi-domain runs are [repro topology]'s storms. *)

val wf_mpsc :
  ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool -> ?name:string -> unit -> factory
(** The specialized MPSC variant ([Topology.Mpsc]): FAA-ticketed
    producers, CAS-free single consumer.  Same registration rules as
    {!wf_spsc}. *)

val wf_spmc :
  ?segment_shift:int -> ?max_garbage:int -> ?reclamation:bool -> ?name:string -> unit -> factory
(** The specialized SPMC variant ([Topology.Spmc]): FAA-ticketed
    consumers, CAS-free single producer.  Same registration rules as
    {!wf_spsc}. *)

val wf_shard_adaptive :
  ?shards:int -> ?capacity:int -> ?rebalance_every:int -> ?name:string -> unit -> factory
(** Sharded router over topology-adaptive shards ([Shard.Adaptive]):
    each shard starts SPSC and degrades toward the general queue as
    roles accumulate.  Safe in any workload, so it joins
    {!figure2_set} too.  The seen-role counters are monotone, so the
    bechamel allocate/free cycle (fresh handle per run) degrades the
    shards after the first cycle — the steady state measured is the
    general backend plus dispatch, the honest number for
    handle-churning callers. *)

val wf_bounded :
  ?patience:int ->
  ?segment_cap:int ->
  ?segment_shift:int ->
  ?max_garbage:int ->
  ?name:string ->
  unit ->
  factory
(** The bounded-memory build of the production queue
    ([Wfqueue.create ~segment_cap], default cap 64 segments): hard
    segment bound, freelist-recycled segments, blocking backpressure
    on exhaustion.  Benched against {!wf} to price the bounded
    bookkeeping on a workload that never hits the cap. *)

val scq : ?order:int -> ?name:string -> unit -> factory
(** Nikolaev's SCQ ([Baselines.Scq], arXiv:1908.04511): the bounded
    lock-free ring baseline, capacity [2^order] (default [2^12]).
    [enqueue] spins on a full ring; [dequeue_or] is native. *)

val all : factory list
(** The evaluation set: wf-10, wf-0, wf-10-obs (instrumented), wf-int-10
    (int-specialized API), wf-shard-2/8 (sharded router), wf-batch-8
    (FAA batching), wf-spsc/wf-mpsc/wf-spmc (specialized topology
    variants), wf-shard-adaptive, wf-bounded (capped segment
    freelist), wf-llsc
    (CAS-emulated FAA, the paper's Power7 configuration), scq
    (bounded ring), lcrq,
    ccqueue, msqueue, kp (Kogan-Petrank), two-lock, mutex, faa. *)

val figure2_set : factory list
(** The queues plotted in Figure 2 (all of [all] except the extra
    blocking baselines), plus the sharded/batched/adaptive variants so
    the scaling tables cover them.  The raw specialized variants are
    excluded: the multi-thread pairs workload violates their topology
    contract by construction. *)

val find : string -> factory option
val names : unit -> string list
