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

(** {1 Ablations} (DESIGN.md §4) *)

val ablation_patience :
  ?quick:bool -> ?threads:int -> ?values:int list -> ?total_ops:int -> unit -> Report.t

val ablation_segment_size :
  ?quick:bool -> ?threads:int -> ?shifts:int list -> ?total_ops:int -> unit -> Report.t

val ablation_max_garbage :
  ?quick:bool -> ?threads:int -> ?values:int list -> ?total_ops:int -> unit -> Report.t

val ablation_reclamation : ?quick:bool -> ?threads:int -> ?total_ops:int -> unit -> Report.t
