(** Telemetry runs: workload executions that record what the
    throughput benchmarks deliberately do not — per-operation latency
    histograms, minor words per operation and the queue's full
    {!Obs.Snapshot}.

    A telemetry run is a {!Runner.run_once} that wraps every
    [enqueue]/[dequeue] in a monotonic clock pair and a
    [Gc.minor_words] pair, so it is NOT a throughput benchmark (the
    timing calls dominate short operations); throughput numbers come
    from {!Runner.measure}.  What it is for: the paper's §6
    wait-freedom evidence — how often operations leave the fast path
    as patience varies, and what the tail latencies look like
    ([repro stats] on the instrumented build, [repro latency] across
    queues). *)

type run_result = {
  threads : int;
  ops : int;
  elapsed_s : float;
  mops : float;  (** indicative only — includes per-op timing cost *)
  snapshot : Obs.Snapshot.t option;  (** [None] for uninstrumented baselines *)
  latency : Obs.Op_latency.t;  (** merged across all worker domains *)
  alloc : Obs.Alloc_probe.t;
      (** per-operation minor-words, merged across workers.  Measured
          under real concurrency, so it includes contention effects
          (helping, segment churn) — whole-system words/op, not the
          deterministic steady-state number the alloc test pins (that
          is {!Alloc_bench}). *)
}

val run : Queues.instance -> Workload.spec -> threads:int -> run_result
(** {!Runner.run_once} with every operation timed: each worker's ops
    are wrapped in a latency and minor-words window, one meter pair
    per worker, merged after the join.  Works on any queue instance
    (latencies for every queue; the snapshot only for the WF
    builds). *)

type row = { patience : int; result : run_result }

val default_patiences : int list
(** [0; 1; 10; 64] — the paper's §6 sweep. *)

val stats_table :
  ?kind:Workload.kind ->
  ?patiences:int list ->
  ?total_ops:int ->
  threads:int ->
  unit ->
  row list
(** One instrumented run of the wait-free queue per patience value
    (think time off, to actually contend).  [total_ops] defaults to
    400k — enough for a stable rate, quick enough for CI. *)

val pp_table : Format.formatter -> row list -> unit
(** The patience-vs-slow-path-rate table ([repro stats] output). *)

(** {1 The slow-path ceiling}

    The paper's §6 claim as a check that can fail: at patience
    {!ceiling_patience} the instrumented queue's slow-path rate must
    stay at or below {!max_slow_rate}.  [repro stats] prints the
    verdict and exits 1 on {!Exceeded}. *)

val ceiling_patience : int
(** 10. *)

val max_slow_rate : float
(** 1e-3 — the paper's "negligible" (below 1e-6) loosened to a value
    a loaded shared CI runner meets: real preemption forces some slow
    paths. *)

type verdict =
  | Within of float  (** slow-path rate at the ceiling patience, within the limit *)
  | Exceeded of float  (** the rate is above {!max_slow_rate} *)
  | Unmeasured  (** no row at {!ceiling_patience} carries a snapshot *)

val slow_path_verdict : row list -> verdict
(** Judge the first row at {!ceiling_patience} that carries a snapshot. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** One line: PASS, FAIL or "not checked", with the rate and limit. *)

val table_to_json : row list -> Json.t
(** The rows as the [repro stats --json] document: per row, the run's
    counters, latency summaries, alloc rates and snapshot. *)
