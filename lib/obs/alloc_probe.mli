(** The allocation probe tier: per-operation minor-heap words, by
    [Gc.minor_words] deltas, with the same compile-time gating
    discipline as {!Probe}.

    Memory-frugal queue work (Jiffy, wCQ) treats allocations-per-op as
    a first-class property next to throughput: an extra box on the hot
    path is invisible to a throughput smoke run but turns into GC
    pressure — and eventually collection pauses — under production
    load.  This tier makes the number measurable and therefore
    assertable (the exact words/op rows of [test/test_alloc.ml]).

    Two pieces:

    - {!t}, the accumulator: operation and word totals per operation
      class.  It is an {e all-float} record, so field updates are
      stores into a flat float block — the meter itself never touches
      the minor heap while metering (a mixed int/float record would
      re-box the float fields on every update, polluting the very
      quantity being measured).
    - {!Meter}, the gated reader: [Meter (Probe.Disabled)] compiles
      [start]/[record] down to constants ([enabled] is a compile-time
      constant of the instantiation, exactly like the event-tier
      probe), so a disabled build pays neither the [Gc.minor_words]
      calls nor the accumulator stores.

    Measurement discipline: deltas are taken immediately around the
    operation under test, so the caller's own bookkeeping (latency
    clocks, loop counters) lands {e between} windows and is excluded.
    [Gc.minor_words] counts the calling domain only; keep one
    accumulator per worker domain and {!merge_into} after joining. *)

type t = {
  mutable enq_ops : float;
  mutable enq_words : float;
  mutable deq_ops : float;
  mutable deq_words : float;
}
(** All fields [float] (deliberately, including the op counts) so the
    record is a flat float block and updates never allocate. *)

type cls = Enqueue | Dequeue

val create : unit -> t
val reset : t -> unit

val record : t -> cls -> float -> unit
(** [record t cls words] accounts one operation of class [cls] that
    allocated [words] minor words.  Ungated — callers that want the
    compile-time gate go through {!Meter}. *)

val merge_into : into:t -> t -> unit

val ops : t -> cls -> float
val words : t -> cls -> float

val words_per_enqueue : t -> float
(** Mean minor words per enqueue; 0 when none ran. *)

val words_per_dequeue : t -> float

val words_per_op : t -> float
(** Mean minor words across both classes. *)

val pp : Format.formatter -> t -> unit

(** The compile-time-gated meter.  [P.enabled] is a structure constant
    of the instantiation ({!Probe.Disabled} / {!Probe.Enabled}), so
    the disabled meter's [start] and [record] are empty after constant
    folding — the same zero-cost argument as the event-tier probe.
    test_alloc's "meter disabled" checks that it reads 0 and records
    nothing. *)
module Meter (P : Probe.S) : sig
  val enabled : bool

  val start : unit -> int
  (** The domain's current [Gc.minor_words] (as an int — exact up to
      2^53 words), or [0] when disabled.  The handle is an [int]
      rather than a [float] so it crosses the [record] call boundary
      as an immediate: a float handle would be boxed at the call
      site, {e inside} the very window it delimits, in a non-flambda
      build. *)

  val record : t -> cls -> int -> unit
  (** [record acc cls w0] accounts one [cls] operation whose window
      opened at [start]-value [w0]; reads [Gc.minor_words] again and
      adds the delta.  No-op when disabled. *)
end
