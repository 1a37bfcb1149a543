(** The allocation probe tier: per-operation minor-heap words, by
    [Gc.minor_words] deltas.

    Memory-frugal queue work (Jiffy, wCQ) treats allocations-per-op as
    a first-class property next to throughput: an extra box on the hot
    path is invisible to a throughput smoke run but turns into GC
    pressure — and eventually collection pauses — under production
    load.  This tier makes the number measurable and therefore
    assertable (the exact words/op rows of [test/test_alloc.ml]).

    {!t} is the accumulator: operation and word totals per operation
    class.  It is an {e all-float} record, so field updates are stores
    into a flat float block — the accumulator itself never touches the
    minor heap while metering (a mixed int/float record would re-box
    the float fields on every update, polluting the very quantity
    being measured).  Callers take the deltas themselves
    ([Telemetry]'s timed ops, [Alloc_bench]) and {!record} them.

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
    allocated [words] minor words. *)

val merge_into : into:t -> t -> unit

val ops : t -> cls -> float
val words : t -> cls -> float

val words_per_enqueue : t -> float
(** Mean minor words per enqueue; 0 when none ran. *)

val words_per_dequeue : t -> float

val words_per_op : t -> float
(** Mean minor words across both classes. *)
