(** Drivers that regenerate each table and figure of the paper's
    evaluation (the per-experiment index lives in DESIGN.md §4).

    Every driver prints a {!Report} table to stdout and returns it so
    tests can assert on shape.  [quick] trades methodology strength
    for time (3 invocations, shorter iterations) — [repro --quick]
    and the tests; the full CLI defaults to the paper's 10-invocation
    methodology. *)

val table1 : unit -> Report.t
(** Platform summary: the paper's four machines plus this host. *)

val figure2 :
  ?quick:bool ->
  ?threads:int list ->
  ?queues:Queues.factory list ->
  ?total_ops:int ->
  Workload.kind ->
  Report.t
(** Throughput (work-excluded Mops/s, 95% CI) of each queue across
    thread counts, for one of the two benchmarks.  Defaults: quick
    false; threads [1;2;4;8;16]; the Figure 2 queue set; 10^7 ops
    (quick: 4×10^5). *)

val table2 : ?quick:bool -> ?threads:int list -> ?total_ops:int -> unit -> Report.t
(** Execution-path breakdown of WF-0 under the 50%-enqueues benchmark
    (% slow-path enqueues / dequeues / empty dequeues), including
    oversubscribed thread counts, as in Table 2. *)

val latency :
  ?queues:Queues.factory list -> ?threads:int -> ?ops_per_thread:int -> unit -> Report.t
(** The latency-tail table ([repro latency]): one {!Telemetry.run} per
    queue on the 50%-enqueues workload without think time, with p50,
    p90, p99, p99.9, max and the sample count over every operation
    class.  Defaults: the Figure 2 set, 8 threads, 20k operations
    each.  The timed window holds the clock reads and the alloc
    meter's two [Gc.minor_words] reads, so compare queues, not
    absolute values. *)

(** {1 Ablations} (DESIGN.md §4)

    One driver over a table of sweeps: each sweep runs the pairs
    benchmark once per point with the {!Runner.measure} methodology
    and prints one row per point. *)

type sweep = {
  parameter : string;  (** the swept knob; [repro ablation-<parameter>] *)
  doc : string;  (** one-line description (the subcommand's help) *)
  column : string;  (** header of the label column *)
  title : string;  (** what the table's title names *)
  points : (string * Queues.factory) list;  (** row label, queue *)
}

val ablations : sweep list
(** patience, segment, garbage, reclaim. *)

val ablation : ?quick:bool -> ?threads:int -> ?total_ops:int -> sweep -> Report.t
(** Run one sweep at [threads] (default 8) and print its table. *)
