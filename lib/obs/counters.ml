(* Per-handle operation-path event counters; see counters.mli.

   Two tiers share one record so a handle carries exactly one stats
   block:

   - the *path* tier (fast/slow/empty outcomes) is what Table 2 of the
     paper reports and what the queue has always recorded
     unconditionally — one plain-int increment per completed
     operation;
   - the *event* tier (CAS failures, cells skipped, helping) is only
     written when the instrumented build ([Obs.Probe.Enabled]) is
     compiled in, so the production queue never touches those fields.

   All fields are owner-written plain mutable ints: no atomics, no
   contention, and the whole record is cache-padded at allocation so
   neighbouring handles' counters never share a line. *)

type t = {
  (* path tier *)
  mutable fast_enqueues : int;
  mutable slow_enqueues : int;
  mutable fast_dequeues : int;
  mutable slow_dequeues : int;
  mutable empty_dequeues : int;
  (* event tier *)
  mutable enq_cas_failures : int;
  mutable deq_cas_failures : int;
  mutable cells_skipped : int;
  mutable help_enqueues : int;
  mutable help_dequeues : int;
}

let create () =
  {
    fast_enqueues = 0;
    slow_enqueues = 0;
    fast_dequeues = 0;
    slow_dequeues = 0;
    empty_dequeues = 0;
    enq_cas_failures = 0;
    deq_cas_failures = 0;
    cells_skipped = 0;
    help_enqueues = 0;
    help_dequeues = 0;
  }

let create_padded () = Primitives.Padding.copy_as_padded (create ())

let reset t =
  t.fast_enqueues <- 0;
  t.slow_enqueues <- 0;
  t.fast_dequeues <- 0;
  t.slow_dequeues <- 0;
  t.empty_dequeues <- 0;
  t.enq_cas_failures <- 0;
  t.deq_cas_failures <- 0;
  t.cells_skipped <- 0;
  t.help_enqueues <- 0;
  t.help_dequeues <- 0

let add ~into t =
  into.fast_enqueues <- into.fast_enqueues + t.fast_enqueues;
  into.slow_enqueues <- into.slow_enqueues + t.slow_enqueues;
  into.fast_dequeues <- into.fast_dequeues + t.fast_dequeues;
  into.slow_dequeues <- into.slow_dequeues + t.slow_dequeues;
  into.empty_dequeues <- into.empty_dequeues + t.empty_dequeues;
  into.enq_cas_failures <- into.enq_cas_failures + t.enq_cas_failures;
  into.deq_cas_failures <- into.deq_cas_failures + t.deq_cas_failures;
  into.cells_skipped <- into.cells_skipped + t.cells_skipped;
  into.help_enqueues <- into.help_enqueues + t.help_enqueues;
  into.help_dequeues <- into.help_dequeues + t.help_dequeues

let absorb ~into t =
  add ~into t;
  reset t

let total_enqueues t = t.fast_enqueues + t.slow_enqueues
let total_dequeues t = t.fast_dequeues + t.slow_dequeues
let total_ops t = total_enqueues t + total_dequeues t

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let pct num den = 100.0 *. ratio num den
let slow_enqueue_pct t = pct t.slow_enqueues (total_enqueues t)
let slow_dequeue_pct t = pct t.slow_dequeues (total_dequeues t)
let empty_dequeue_pct t = pct t.empty_dequeues (total_dequeues t)
let slow_enqueue_rate t = ratio t.slow_enqueues (total_enqueues t)
let slow_dequeue_rate t = ratio t.slow_dequeues (total_dequeues t)
let slow_rate t = ratio (t.slow_enqueues + t.slow_dequeues) (total_ops t)
let per_million rate = 1e6 *. rate

let pp ppf t =
  Format.fprintf ppf
    "enq: %d fast / %d slow (%.3f%% slow); deq: %d fast / %d slow (%.3f%% slow); empty: %d (%.3f%%)"
    t.fast_enqueues t.slow_enqueues (slow_enqueue_pct t) t.fast_dequeues t.slow_dequeues
    (slow_dequeue_pct t) t.empty_dequeues (empty_dequeue_pct t)

let pp_events ppf t =
  Format.fprintf ppf
    "cas failures: %d enq / %d deq; cells skipped: %d; helped: %d enq / %d deq"
    t.enq_cas_failures t.deq_cas_failures t.cells_skipped t.help_enqueues t.help_dequeues
