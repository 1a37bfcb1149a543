(** A queue-level telemetry snapshot: per-handle counters merged into
    totals, plus the reclamation-pressure gauges.

    Built by the queue's [snapshot] introspection entry point, which
    folds every ring handle's {!Counters} into one total — including
    the departed-handle accumulator, so operations by domains whose
    ring slots were since recycled are counted exactly once.  Exact
    when the queue is quiescent; a concurrent snapshot is a racy but
    tear-free view (every field is one word), which is what a
    monitoring scrape wants. *)

type segments = {
  allocated : int;  (** segments allocated fresh *)
  reclaimed : int;  (** segments unlinked by cleanup *)
  recycled : int;  (** segments served from the recycling pool *)
  wasted : int;  (** segments that lost the append race *)
  pooled : int;  (** segments currently in the pool *)
  live : int;  (** current length of the segment list *)
  cleanups : int;  (** cleanup runs that actually reclaimed (the
                       [max_garbage] amortization events) *)
  cap : int;  (** bounded-mode segment cap; [0] = unbounded *)
  cap_hits : int;  (** acquire attempts that found the pool empty at
                       the cap and had to wait for a release *)
}

type handles = {
  ring : int;  (** helping-ring slots (live + awaiting recycling) *)
  live : int;  (** slots whose handle is not retired *)
  free_slots : int;  (** retired slots waiting for a register *)
}

type t = {
  ops : Counters.t;  (** merged per-handle + departed-handle counters *)
  segments : segments;
  handles : handles;
  patience : int;
  probe_enabled : bool;
      (** whether the build records the event tier — [false] means the
          event-tier zeros are "not measured", not "measured zero" *)
}

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable summary (the [repro stats] footer). *)
