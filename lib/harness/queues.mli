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
(** {!wf} at [int Wfq.Wfqueue.t], with dequeues routed through the
    allocation-free [dequeue_or] (EMPTY = [min_int]).  Its delta
    against {!wf} prices the generic API's option box. *)

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
    (dequeues through [dequeue_or]), wf-bounded (capped segment
    freelist), wf-llsc (CAS-emulated FAA, the paper's Power7
    configuration), scq (bounded ring), lcrq, ccqueue, msqueue,
    kp (Kogan-Petrank), two-lock, mutex, faa. *)

val figure2_set : factory list
(** The queues plotted in Figure 2 (all of [all] except the
    instrumented build, wf-llsc and the extra blocking baselines), so
    the scaling tables also cover wf-int-10, wf-bounded and scq. *)

val find : string -> factory option
val names : unit -> string list
