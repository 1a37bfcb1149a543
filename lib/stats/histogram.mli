(** Log-linear histograms for latency recording.

    Recording a sample is O(1) into a fixed ~64×2^sub_bits bucket
    array, so per-operation latencies can be recorded for millions of
    operations without per-sample allocation; percentiles are then
    read with bounded relative error.  The layout is HdrHistogram's:
    one power-of-two major bucket per value magnitude, split into
    [2^sub_bits] linear sub-buckets, giving relative quantization
    error at most [2^-sub_bits]. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 8, i.e. ≤0.4% relative error) must be in
    [\[0, 16\]]. *)

val sub_bits : t -> int

val add : t -> float -> unit
(** Record a sample.  Negative samples count as 0. *)

val count : t -> int
val max_recorded : t -> float
(** Largest sample recorded exactly (not quantized); 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]]: an upper bound on the
    value at that rank, within the quantization error.  Raises
    [Invalid_argument] when empty or [p] out of range. *)

val merge_into : into:t -> t -> unit
(** Add all of the second histogram's buckets into [into]; both must
    have equal [sub_bits] (checked). *)

val mean : t -> float
(** Quantized mean (bucket upper bounds weighted by counts). *)
