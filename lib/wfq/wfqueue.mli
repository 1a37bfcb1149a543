(** The wait-free FIFO queue of Yang & Mellor-Crummey (PPoPP 2016),
    "A Wait-free Queue as Fast as Fetch-and-Add".

    The queue is an "infinite array" of cells, realized as a linked
    list of fixed-size segments, with unbounded head and tail indices
    advanced by fetch-and-add.  Operations first run a fast path (one
    FAA plus one CAS); after [patience] failed fast-path attempts they
    publish a request and fall back to a helping slow path that is
    guaranteed to complete, making every operation wait-free
    (a bounded number of steps regardless of scheduling).  Retired
    segments are unlinked by the paper's custom reclamation scheme so
    that the live segment list stays bounded; OCaml's GC then collects
    them (DESIGN.md §2.4 explains the mapping from free()).

    {1 Handles and their lifecycle}

    Every thread (domain) operating on a queue needs a {!handle}
    holding its segment pointers, helping state, and its slot in the
    helping ring (the paper's [Handle]).  Obtain one per domain with
    {!register}; a handle must never be used by two domains
    concurrently.  The {!push}/{!pop} convenience wrappers register
    and cache a handle per domain automatically.

    Handles have a full lifecycle, closing the paper's §3.6 "thread
    failure" problem (a departed thread's handle otherwise pins
    reclamation forever and bloats the helping ring):

    - {b register}: {!register} first recycles a retired ring slot if
      one is available, so the ring length is bounded by the peak
      number of concurrently registered domains — not by the total
      number of domains ever seen.
    - {b operate}: {!enqueue}/{!dequeue} with an explicit handle, or
      {!push}/{!pop} with the cached per-domain handle.  The implicit
      path takes no lock: the cache is a domain-local slot.
    - {b retire}: {!retire} declares the owner gone; the handle stops
      blocking reclamation, drops out of the helping rotation, and its
      ring slot becomes recyclable.  Handles cached by {!push}/{!pop}
      are retired automatically when their domain terminates (a
      [Domain.at_exit] hook); explicit handles should be retired by
      whoever joins the domain. *)

type 'a t
type 'a handle

val create :
  ?patience:int ->
  ?segment_shift:int ->
  ?max_garbage:int ->
  ?reclamation:bool ->
  ?segment_cap:int ->
  unit ->
  'a t
(** Creates an empty queue.

    [patience] is the number of extra fast-path attempts before an
    operation switches to the wait-free slow path; the paper evaluates
    [10] (the default, "WF-10") and [0] ("WF-0").

    [segment_shift] sizes segments at [2^segment_shift] cells
    (default 10, the paper's [N = 2^10]).

    [max_garbage] is the number of retired segments allowed to
    accumulate before a dequeuer runs the cleanup protocol
    (default 16).

    [reclamation] (default true) can disable segment unlinking
    entirely, for the reclamation ablation benchmark.

    [segment_cap] switches the queue into {e bounded-memory mode}
    (DESIGN.md §11): the total number of segments ever materialized —
    live in the chain, pooled in the freelist, or privately held by an
    appender — never exceeds the cap.  Segment acquisition then draws
    on a budget-guarded freelist: when the budget is spent and the
    freelist is empty, the acquiring operation waits (backpressure)
    for a cleanup to recycle a segment.  The cap is a {b hard} memory
    bound; admission ({!try_enqueue}) is an {e advisory}
    index-distance check layered above it so producers can
    observe fullness without blocking.  Requires
    [segment_cap >= max_garbage + 4] (cleanup must always be able to
    reach its threshold with segments to spare) and [reclamation =
    true] (recycling is what refills the freelist);
    @raise Invalid_argument otherwise.  Default: unbounded. *)

val register : 'a t -> 'a handle
(** A handle for the calling domain: a retired ring slot is recycled
    when one is available (its request and pointer state reset under
    the cleanup token), otherwise a fresh slot is linked into the
    helping ring.  Ring length is therefore bounded by the peak number
    of concurrently live handles.  Cheap enough to call once per
    domain; do not call per operation. *)

val enqueue : 'a t -> 'a handle -> 'a -> unit
(** Wait-free enqueue (Listing 3).  In bounded mode this always
    succeeds, blocking {e at the admission line} — before any ticket
    or hazard pointer is taken — until dequeues make room
    (backpressure, not failure).  Waiting up front keeps a blocked
    producer from pinning the oldest segment against reclamation,
    which is what wedges designs that park inside segment
    acquisition.  Progress requires consumers: with no dequeuer a
    full bounded queue blocks indefinitely (that is the contract —
    use {!try_enqueue} to poll instead). *)

val try_enqueue : 'a t -> 'a handle -> 'a -> bool
(** Admission-checked enqueue: [false] if a bounded queue looks full
    ([tail - head >= enq_capacity]), otherwise {!enqueue} and [true].
    The check is {e admission-first}: rejection happens before any
    ticket is taken, so a [false] has zero protocol footprint (no
    poisoned cell, no request).  Advisory under concurrency — racing
    producers can each pass the check and overshoot by their count —
    but the segment cap itself stays hard (overshooting producers
    block in acquisition).  Unbounded queues always admit. *)

val dequeue : 'a t -> 'a handle -> 'a option
(** Wait-free dequeue (Listing 4); [None] means the queue was
    observed empty (the paper's EMPTY).  Unlike Listing 4, EMPTY is
    answered {e before} the head FAA: the dequeue reads the head
    index, then the tail index, and answers [None] without taking a
    ticket when head >= tail (linearized at the tail read; DESIGN.md
    §3).  A poll of an empty queue therefore poisons no cell — the
    enqueue that later draws that index is not pushed round again —
    and leaves both indices alone, so idle pollers allocate no
    segments.  Otherwise the paper's protocol runs unchanged, and it
    can still answer [None] after taking a ticket (a racing dequeuer
    took the last value). *)

val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
(** [dequeue_or q h default] is {!dequeue} returning [default] when
    the queue is observed empty, without building the [Some] box —
    the allocation-free dequeue for callers with an out-of-band
    default (see DESIGN.md, allocation discipline).  The caller must
    pick a [default] it can distinguish from a queued value (or not
    care, e.g. polling loops counting successes via a sentinel). *)

val push : 'a t -> 'a -> unit
(** {!enqueue} with a per-domain handle managed internally.  The hot
    path is lock-free: a domain-local cache lookup plus one atomic
    read (no [Mutex], no shared table).  The first call from a domain
    registers a handle (recycling a retired slot when possible) and
    installs a [Domain.at_exit] hook that retires it when the domain
    terminates, so short-lived domains leak neither ring slots nor
    reclamation progress. *)

val pop : 'a t -> 'a option
(** {!dequeue} with a per-domain handle managed internally; same
    lifecycle as {!push}. *)

val domain_handle : 'a t -> 'a handle
(** The calling domain's cached handle (the one {!push}/{!pop} use),
    registering one on first use — same lifecycle as {!push}.  For
    callers that mix the implicit API with operations needing an
    explicit handle (e.g. the pool's admission protocol). *)

val approx_length : 'a t -> int
(** Tail index minus head index, clamped to 0: counts enqueued values
    not yet claimed by dequeuers.  Exact when quiescent. *)

val patience : 'a t -> int

(** {1 Introspection}

    Used by the Table 2 breakdown, the reclamation tests, and the
    ablation benchmarks. *)

val stats : 'a t -> Op_stats.t
(** Sum of all handles' path counters.  Consistent when quiescent. *)

val reset_stats : 'a t -> unit

val handle_stats : 'a handle -> Op_stats.t
(** The live counters of one handle (owner-written; read when
    quiescent). *)

val reclaimed_segments : 'a t -> int
(** Segments unlinked by cleanup since creation. *)

val cleanup_runs : 'a t -> int
(** Cleanup attempts that won the [H'] token and actually unlinked
    garbage (the paper's Listing 5 body), as opposed to bailing on the
    [max_garbage] threshold or the token CAS. *)

val allocated_segments : 'a t -> int
(** Segments allocated fresh (not served from the recycling pool). *)

val wasted_segments : 'a t -> int
(** Segments that lost the append race in [find_cell] (the paper
    frees those immediately; here they return to the pool). *)

val recycled_segments : 'a t -> int
(** Segments served from the recycling pool instead of fresh
    allocation. *)

val pooled_segments : 'a t -> int
(** Segments currently sitting in the pool. *)

val live_segments : 'a t -> int
(** Length of the current segment list (walks it; O(live)). *)

val segment_cap : 'a t -> int option
(** The bounded-mode segment cap, or [None] when unbounded. *)

val enq_capacity : 'a t -> int option
(** The admission threshold in cells
    ([(cap - max_garbage - 2) * 2^segment_shift]), or [None] when
    unbounded.  {!try_enqueue} rejects once [tail - head] would
    exceed this. *)

val cap_hits : 'a t -> int
(** Bounded-mode pressure events: blocking enqueues that had to wait
    at the admission line, plus segment acquisitions that found the
    budget spent and the freelist empty and had to wait for a
    recycle.  Not incremented by [try_*] admission rejections (those
    return immediately); always [0] when unbounded. *)

val oldest_segment_id : 'a t -> int
(** The paper's [I]: id of the oldest live segment, or [-1] while a
    cleanup is in progress. *)

val ring_handles : 'a t -> int
(** Number of slots in the helping ring (live + retired-awaiting-
    recycling).  Bounded by the peak number of concurrently registered
    domains, not by the total number of registrations.  Walks the
    ring; consistent when quiescent. *)

val live_handles : 'a t -> int
(** Ring slots whose handle is not retired. *)

val free_handle_slots : 'a t -> int
(** Retired slots currently waiting to be recycled by {!register}. *)

val snapshot : 'a t -> Obs.Snapshot.t
(** One coherent-when-quiescent telemetry snapshot: aggregated op
    counters (including the retired-handle accumulator), segment and
    handle gauges, and the queue's patience.  Concurrent readers get a
    racy-but-safe view — every field is a monotonic counter or a
    walked-list gauge. *)

val probe_enabled : bool
(** Whether this instantiation records the event tier of
    {!Obs.Counters} (CAS failures, cells skipped, helping events).
    [false] here; [true] in [Wfqueue_obs]. *)

val injector_enabled : bool
(** Whether this instantiation compiles in the {!Inject} fault-
    injection points.  [false] here (no point can fire, though each
    gate still costs a load and a branch; see [Wfqueue_algo]'s
    header); [true] in [Wfqueue_inject]. *)

val retire : 'a t -> 'a handle -> unit
(** Declare the handle's owning thread gone (dead or deregistered):
    clears its hazard pointer so reclamation can proceed (the paper's
    §3.6 "thread failure" leak), removes it from the helping rotation
    and the cleanup scan, and donates its ring slot for recycling by a
    future {!register}.  Idempotent — safe to call both explicitly and
    through the automatic domain-termination hook of {!push}/{!pop}.

    {b Unsound} if the owner is still inside an operation on [q] —
    the cleared hazard pointer would allow its working segments to be
    recycled under it.  Call only after the domain has terminated
    (e.g. after [Domain.join]), from the owning domain itself after
    its last operation, or when an external failure detector says the
    owner is gone.  Retiring every handle is allowed; a retired handle
    must not be used again by its old owner. *)

(** {1 Whitebox access}

    On a single-core host, preemption essentially never lands between
    a fast path's FAA and its CAS, so the slow paths are unreachable
    through the public API alone.  [Internal] exposes the protocol's
    intermediate steps so the test suite can drive the slow paths and
    the helping protocol deterministically: steal a cell the way a
    contending dequeuer would, publish a request without self-helping,
    then observe helpers complete it.  Not for production use. *)
module Internal : sig
  type 'a cell

  val faa_tail : 'a t -> int
  (** Fetch-and-add 1 on the tail index T, as a fast-path enqueue
      does; returns the acquired cell index. *)

  val faa_head : 'a t -> int
  (** Fetch-and-add 1 on the head index H. *)

  val tail_index : 'a t -> int
  val head_index : 'a t -> int

  val cell_of : 'a t -> 'a handle -> int -> 'a cell
  (** Locate cell [i], advancing the handle's tail pointer. *)

  val poison_cell : 'a cell -> bool
  (** CAS the cell's value from ⊥ to ⊤ — what a dequeuer does to mark
      a cell unusable.  True if this call performed the transition. *)

  val claim_cell_deq : 'a cell -> bool
  (** CAS the cell's deq field from ⊥d to ⊤d — how a fast-path
      dequeue claims a secured value. *)

  val cell_value : 'a cell -> 'a option
  (** The cell's value if one has been deposited. *)

  val enq_slow : 'a t -> 'a handle -> 'a -> int -> unit
  (** The slow-path enqueue, with [cell_id] playing the failed
      fast-path index (the request id). *)

  val deq_slow : 'a t -> 'a handle -> int -> 'a option
  (** The slow-path dequeue with request id [cell_id]. *)

  val publish_enq_request : 'a handle -> 'a -> int -> unit
  (** Publish a pending enqueue request without performing the
      slow-path loop, so that helpers must complete it. *)

  val enq_request_pending : 'a handle -> bool
  val enq_request_claimed_cell : 'a handle -> int option
  (** The cell index the request was claimed for, once completed. *)

  val publish_deq_request : 'a handle -> int -> unit
  val deq_request_pending : 'a handle -> bool

  val help_enq : 'a t -> 'a handle -> 'a cell -> int -> [ `Value of 'a | `Top | `Empty ]
  (** What a dequeuer runs on every cell it visits (Listing 3). *)

  val help_deq : 'a t -> helper:'a handle -> helpee:'a handle -> unit
  (** Complete the helpee's published dequeue request (Listing 4). *)

  val deq_request_result : 'a t -> 'a handle -> 'a option
  (** Read the result cell of a completed dequeue request, advancing
      H as [deq_slow] would. *)

  val cleanup : 'a t -> 'a handle -> unit
  (** Run the reclamation protocol (Listing 5) unconditionally of the
      [max_garbage] threshold check failing due to staleness. *)

  val pool_limit : 'a t -> int
  (** Capacity of the segment recycling pool.  In bounded mode this
      equals the segment cap, so a recycled segment is never dropped
      to the GC (dropping would leak budget: the cap counts segments
      ever created, and a dropped segment's budget is never
      returned). *)

  val pool_length : 'a t -> int
  (** Actual length of the pool's free list (walks it).  The
      size-accounting invariant: [pooled_segments] never exceeds
      [pool_limit] and equals [pool_length] at quiescence. *)

  val pool_push_fresh : 'a t -> unit
  (** Push a fresh dummy segment into the pool, as a losing
      [find_cell] extender or a cleanup would — for hammering the
      pool's admission protocol from many domains. *)

  val pool_take : 'a t -> bool
  (** Pop and discard one pooled segment; [false] when empty. *)

  val set_hazard : 'a t -> 'a handle -> [ `Head | `Tail | `Null ] -> unit
  (** Manipulate the handle's hazard pointer as the operation
      prologues/epilogues do. *)
end
