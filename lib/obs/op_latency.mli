(** Per-operation-class latency recording.

    One log-linear histogram ({!Stats.Histogram}: O(1) record, no
    per-sample allocation) per operation class, so a telemetry run can
    time every single operation and still report faithful tails — the
    wait-freedom "predictability" claim is about p99/max, which
    sampling would miss.  Each worker domain owns a private [t]
    (recording is unsynchronized); the harness merges them after the
    domains join. *)

type cls =
  | Enqueue
  | Dequeue  (** dequeue that returned a value *)
  | Dequeue_empty  (** dequeue that observed EMPTY *)

val classes : cls list
val class_name : cls -> string

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] as in {!Stats.Histogram.create} (default 8). *)

val record : t -> cls -> float -> unit
(** Record one sample in nanoseconds. *)

val histogram : t -> cls -> Stats.Histogram.t

val merge_into : into:t -> t -> unit
(** Merge all classes; both sides must share [sub_bits]. *)

val combined : t -> Stats.Histogram.t
(** Every class merged into one fresh histogram. *)

type summary = {
  samples : int;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float;
}

val summarize : t -> cls -> summary
(** All-zero summary when the class recorded no samples. *)
