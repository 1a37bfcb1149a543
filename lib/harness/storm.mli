(** Fault-injection storms, written once (DESIGN.md §7).

    A storm runs a {e subject} (a queue build with its injection points
    compiled in) on real domains while a seeded {!Inject.Plan} parks or
    kills victim domains at protocol points, then audits value
    conservation.  [repro]'s storm subcommands and the fault-injection
    test suites share the victim controller, the runner and the audit
    below, so the conservation rule is stated in one place.

    Values are owned by position: domain [d] enqueues
    [d * ops + i] for [i = 0, 1, ...], and [committed.(d)] counts the
    values whose enqueue returned. *)

(** {1 Victim controller} *)

val sleep_park : int -> unit
(** [Park n] as a wall-clock sleep of [n] microseconds: long enough to
    span thousands of survivor operations, short enough to sweep
    points. *)

val with_controller :
  park:(int -> unit) -> victim:(unit -> bool) -> Inject.Plan.t -> (unit -> 'a) -> 'a
(** [with_controller ~park ~victim plan f] zeroes the fault counters,
    makes [Park n] wait with [park], and runs [f] with [plan] deciding
    every injection hit for which [victim ()] holds; other hits
    continue.  The controller is removed when [f] returns or raises. *)

type faults = {
  seed : int;
  park : int;  (** stall length in park units; 0 arms no stall *)
  kill : bool;  (** arm [Die] instead of [Park] *)
  victims : int option;  (** domains under the plan; [None]: the default rule *)
}

val plan : faults -> Inject.Plan.t option
(** The plan over every injection point, or [None] when neither
    [park > 0] nor [kill] arms a fault. *)

val describe : faults -> string
(** The [plan:] line: {!Inject.Plan.describe}, or
    ["none (clean throughput run)"]. *)

val victims : faults -> domains:int -> int
(** The one default rule: with a fault armed, [victims] capped at
    [domains], else half the domains (at least one); with none armed,
    no victim. *)

(** {1 Subjects} *)

type ops = {
  enqueue : int array -> unit;  (** enqueue every value, in order, as one batch *)
  dequeue : int array -> int;
      (** fill a prefix of the buffer, return its length; [0] reads
          empty *)
  retire : unit -> unit;
}
(** One registered handle's view of a subject. *)

val single : enqueue:(int -> unit) -> dequeue_or:(int -> int) -> retire:(unit -> unit) -> ops
(** Batch-of-one ops from a single-value queue interface. *)

type subject

val subject :
  ?batch:int ->
  ?invariant:(settled:bool -> string option) ->
  ?footprint:(Format.formatter -> unit) ->
  (unit -> ops) ->
  subject
(** [subject register] with [batch] (default 1) values per operation.
    [invariant] is checked after every committed enqueue
    ([settled = false]) and once after the post-storm drain
    ([settled = true]); [Some msg] is a violation.  [footprint] prints
    the subject's state in the report. *)

(** {1 Runner} *)

type shape =
  | Pairs  (** every domain enqueues a batch, then dequeues one *)
  | Split of int
      (** the first [n] domains produce; the rest dequeue until every
          producer has finished and a dequeue reads empty *)

type outcome = Running | Completed | Killed of Inject.point | Raised of exn

val deadline_s : float
(** Wall-clock bound on a storm; a domain still [Running] past it is a
    violation, reported instead of waited on. *)

val await : (unit -> bool) -> bool
(** Poll the condition every millisecond until it holds ([true]) or
    {!deadline_s} seconds pass ([false]). *)

type result
(** Each domain's outcome and committed count, the run's footprint
    counts, the settled invariant and, when every domain finished, the
    audit. *)

val run : subject -> shape -> domains:int -> ops:int -> faults -> result
(** Spawn the domains (victims first) under the faults' controller and
    wait for them until {!deadline_s}.  When all finish, drain through
    a fresh handle and check the settled invariant; otherwise return
    with the stragglers [Running], still spinning. *)

(** {1 Audit and report} *)

type audit = { missing : int; allowed : int; violations : string list }

val audit :
  ops:int -> batch:int -> committed:int array -> outcomes:outcome array -> int list -> audit
(** The conservation rule:
    - no value is dequeued twice;
    - every value is inside its owner's committed prefix, or in the
      in-flight batch after it when the owner was killed;
    - at most [allowed] = (dequeue-side kills) x [batch] committed
      values are missing.  Every kill is dequeue-side except an
      enqueue-side one (the [Enqueue] class, [Enq_batch_after_faa],
      [Topo_enq_pending]), which lands before its batch commits, and
      one at [Topo_switch_draining], which restores the old backend
      untouched: those strand nothing.
    Kills are read from {!Inject}'s counters, which
    {!with_controller} zeroes. *)

val violations : result -> string list
(** Domains still running at the deadline or that raised, the
    invariant, and — when every domain finished — the audit.  Empty
    means the storm passed. *)

val finish : string list -> int
(** Print the violations and the replay line (this process's command
    line), or an OK line; return the exit code. *)

val report : subject -> result -> int
(** Print each domain's outcome, the audit summary, the subject's
    footprint and the injected faults, then {!finish}. *)
