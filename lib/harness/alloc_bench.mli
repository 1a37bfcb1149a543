(** Deterministic allocations-per-operation measurement — the numbers
    the tier-1 alloc test ([test/test_alloc.ml]) pins.

    Single-threaded enqueue/dequeue pairs, measured in steady state
    (after a warm-up long enough that retired segments are served back
    from the recycling pool), with a per-operation [Gc.minor_words]
    window around each call ({!Obs.Alloc_probe} accounting).  Unlike
    the {!Telemetry} alloc block — which measures whole-system words
    under real concurrency and is therefore noisy — these rows are
    reproducible to a fraction of a word, which is what an exact
    assertion needs.

    The default rows tell the PR-6 story: the generic option API pays
    exactly its [Some] box, [dequeue_or] pays nothing, the
    instrumented build pays no extra words, and the int facade is zero
    end to end. *)

type row = {
  aname : string;
  pairs : int;
  via_dequeue_or : bool;  (** dequeues via [dequeue_or] (no option box) *)
  words_per_enqueue : float;
  words_per_dequeue : float;
  words_per_op : float;
}

val measure :
  ?warmup_pairs:int -> ?pairs:int -> ?via_dequeue_or:bool -> Queues.factory -> row
(** One steady-state measurement of a fresh instance.  Defaults:
    60k warm-up pairs (several cleanup cycles at the default segment
    geometry), 20k measured pairs, option-returning dequeue. *)

val measure_batch_into : ?warmup_pairs:int -> ?pairs:int -> ?batch:int -> unit -> row
(** Steady-state words/op of the caller-buffer batch API
    ([Wfqueue.enq_batch] + [Wfqueue.deq_batch_into] on the int queue):
    per-batch [Gc.minor_words] windows divided by [batch] (default 64),
    so the row reads in the same unit as the per-op rows.  Zero is the
    claim: no [Some] per cell, no result array, no batching-facade
    state. *)

val default_rows : ?warmup_pairs:int -> ?pairs:int -> unit -> row list
(** The pinned set: wf-10 (option API), wf-10-deq-or, wf-10-obs-deq-or,
    wf-int-10, wf-10-deq-batch-into-64, the topology variants
    (wf-spsc, wf-mpsc, wf-spmc, wf-shard-adaptive), wf-bounded-deq-or
    and scq-deq-or.  Every [dequeue_or] row must hold the hot-path
    zero. *)
