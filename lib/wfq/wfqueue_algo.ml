(* The queue algorithm as a functor over its atomic primitives, an
   observability probe, and a fault injector.

   [Wfqueue] instantiates it with hardware atomics, the disabled probe
   and the disabled injector; [Wfqueue_obs] is the same algorithm with
   the event-tier instrumentation compiled in; [Wfqueue_inject] adds
   the fault injector for adversarial-schedule storms; the
   model-checking harness ([simsched]) instantiates it with simulated
   atomics whose every access is a preemption point controlled by a
   test scheduler (and the enabled probe and injector, so the
   instrumented, injectable text is also the model-checked text).
   Keeping the algorithm text in one place means the code that is
   model-checked is the code that ships.

   Instrumentation discipline ([P] : Obs.Probe.S): every event-tier
   record site is [if P.enabled then <plain-int increment>].
   [P.enabled] is a compile-time constant of the instantiation, so the
   disabled build keeps the bare hot path (verified by benchmarking
   wf-10 against wf-10-obs; see DESIGN.md, observability section).
   The path-tier counters (fast/slow/empty outcomes) predate the probe
   and stay unconditional.  Protocol tracing rides a two-conjunct
   gate: every [tracef (fun () -> ...)] site sits under
   [if tracing ()] = [P.enabled && hook installed], so the disabled
   build never constructs the trace thunk — a closure per operation,
   the dominant fast-path allocation before the PR-6 audit — and the
   probe-enabled builds (simsched, _obs, _inject) only construct it
   while a hook is actually listening, keeping even the instrumented
   hot path allocation-free (pinned by test/test_alloc.ml).

   Injection discipline ([I] : Inject.S): every adversarial window is
   [if I.enabled then I.hit <point>] — same compile-time-constant
   gating, same bench-gate verification that the disabled build pays
   nothing.  A hit may return (no fault or a finished stall) or raise
   [Inject.Killed] (simulated thread death); the point map and the
   recovery story are in DESIGN.md §7.

   Allocation discipline (DESIGN.md, allocation section): the
   fast paths — enq_fast, the deq fast attempt including its
   help_enq call, and the empty-dequeue exit — allocate zero minor
   words.  Everything they need lives in preallocated planes, handle
   fields, or immediate ints; the helpers they call are top-level
   functions (a local [let rec] that captures its environment is a
   closure allocation per call).  The slow paths may allocate
   (segment extension, helping reservations, cleanup bookkeeping):
   they are bounded by patience/helping and amortized by segment
   size.  [test/test_alloc.ml] pins the fast-path zero with
   [Gc.minor_words]; the alloc rows in the bench JSON gate it in
   CI. *)

(* Bounded-mode backpressure, at the library's top level (not inside
   [Make]) so every instantiation — and the shard router over any of
   them — raises the one same exception, and a caller composing a
   bounded router over bounded shards needs a single handler. *)
exception Would_block

module Make (A : Atomic_prims.S) (P : Obs.Probe.S) (I : Inject.S) = struct
(* Port of Listings 2-5 of Yang & Mellor-Crummey, "A Wait-free Queue
   as Fast as Fetch-and-Add" (PPoPP 2016).  Comments of the form
   "L.nn" refer to line numbers in the paper's listings.

   Representation choices (rationale in DESIGN.md):
   - the value plane stores the user's values as bare words
     ([Obj.repr], no constructor box); the reserved values ⊥/⊤ are
     two private heap blocks, so CAS from them is exact physical
     equality and no user value can collide with them;
   - the two-word request states (pending, id) are packed into one
     OCaml int ([Primitives.Packed_state]) and claimed with CAS;
   - hzdp = null is a sentinel segment with id = max_int, which
     behaves like null in every comparison the protocol performs;
   - all cross-thread locations are [A.t] (sequentially
     consistent), subsuming every fence the paper discusses. *)

module Packed = Primitives.Packed_state

(* Optional protocol tracing, for the model-checking harness: when a
   hook is installed every key protocol transition reports itself.
   Call sites are gated by [tracing ()] (see the header), so on a
   disabled instantiation [set_trace] is accepted but never fires. *)
let trace_hook : (string -> unit) option ref = ref None
let set_trace f = trace_hook := f
let tracef f = match !trace_hook with None -> () | Some out -> out (f ())

(* The call-site gate for tracing: the compile-time probe constant AND
   a hook actually installed.  The second conjunct matters for the
   instrumented build — without it every site would still construct
   its closure (and its captures) per operation even when nobody is
   listening, and the enabled build would allocate on the hot path. *)
let[@inline] tracing () =
  P.enabled && (match !trace_hook with None -> false | Some _ -> true)

(* The value plane's reserved words.  The paper's ⊥ and ⊤ become two
   private heap blocks: [Obj.repr] of a ref cell nobody else can ever
   obtain, so physical equality against them is exact — an immediate
   sentinel like [Obj.magic 0] would collide with the user's own [0].
   User values are stored with [Obj.repr] (the identity) and recovered
   with [Obj.obj]; the [Value v] box of the earlier representation —
   two minor words per enqueue — is gone.  [empty_w] never enters a
   cell: it is the out-of-band "queue observed empty" result word of
   the dequeue paths, so they can return a bare word instead of an
   allocated [option]/variant. *)
let bottom_w : Obj.t = Obj.repr (ref "wfq.bottom")
let top_w : Obj.t = Obj.repr (ref "wfq.top")
let empty_w : Obj.t = Obj.repr (ref "wfq.empty")

let[@inline] is_value w = w != bottom_w && w != top_w

(* An enqueue request (L.10-12).  One record is ONE slow-path enqueue:
   the value and id are frozen at publication and only [enq_state]
   ever changes (pending -> claimed, exactly once).  The paper reuses
   a single per-thread record, which is sound only while every new
   request id exceeds every cell id a stale helper of an older request
   may still compare against; the batch entry points broke that
   side condition (a batch reserves its tickets up front, so a later
   ticket can be numerically smaller than an earlier request's
   announced candidate) and the resulting packed-word ABA let a stale
   helper close a *reused* record against the wrong request.  A fresh
   record per request makes every state CAS and every [Enq_req r]
   identity unambiguous, independent of id arithmetic. *)
type enq_request = { enq_value : Obj.t; enq_state : Packed.t A.t }
type enq_link = Enq_bottom | Enq_top | Enq_req of enq_request

(* A dequeue request (L.13-15): [deq_id] names the request (frozen at
   publication, like [enq_value] above), [state] packs (pending, idx)
   where idx is the latest announced candidate cell.  Single-use for
   the same reason as [enq_request]. *)
type deq_request = { deq_id : int; deq_state : Packed.t A.t }
type deq_link = Deq_bottom | Deq_top | Deq_req of deq_request

(* The settled records a handle starts with (and returns to when its
   slot is recycled): never pending, so no helper CAS can touch them. *)
let settled_enq_request () = { enq_value = bottom_w; enq_state = A.make Packed.initial }
let settled_deq_request () = { deq_id = 0; deq_state = A.make Packed.initial }

(* A cell is the triple (value, enq, deq) at one offset of a segment
   (L.5-9).  It is stored flattened: instead of an array of pointers
   to 3-field cell records (two dependent loads before the atomic
   box is even reached, and record boxes scattered by the allocator),
   a segment holds three contiguous parallel planes — [values],
   [enqs], [deqs] — indexed by the cell offset.  A cell visit is then
   one array index into the plane the operation actually touches:
   the fast paths never load the enq/deq planes' boxes at all, and
   plane entries for neighbouring cells are adjacent, which is the
   "contiguous cell array" layout of Listing 1.  The protocol never
   needs the triple atomically — each field is its own SC atomic and
   all mixed reads were already tolerated (help_enq) — so flattening
   changes addressing only, not the set of atomic locations.

   The type parameter is phantom for the planes (values are bare
   words); it survives on [segment]/[handle]/[t] so the public API
   stays ['a]-typed and [Obj] never escapes this module.

   [seg_id] is mutable only so that pooled segments can be relabeled
   while private (between pool pop and publication); every read
   happens after an atomic publication of the segment, exactly like
   reads of a freshly initialized one. *)
type 'a segment = {
  mutable seg_id : int;
  uid : int; (* physical identity, stable across pool relabeling *)
  next : 'a segment option A.t;
  values : Obj.t A.t array;
  enqs : enq_link A.t array;
  deqs : deq_link A.t array;
}

(* Immutable free-list node; see the [pool] field below. *)
type 'a pool_node = { pooled : 'a segment; rest : 'a pool_node option }

(* Immutable free-list node for retired handle slots; like [pool_node],
   nodes are freshly allocated per push so the Treiber CAS is ABA-safe
   under GC. *)
type 'a free_node = { freed : 'a handle; more : 'a free_node option }

and 'a handle = {
  hid : int; (* registration order, used only by tracing/debugging *)
  head : 'a segment A.t;
  tail : 'a segment A.t;
  (* Ring link; [None] means "points to itself" so a fresh handle is a
     singleton ring without a recursive-value knot. *)
  ring_next : 'a handle option A.t;
  hzdp : 'a segment A.t;
  enq_req : enq_request A.t; (* current (latest published) request *)
  mutable enq_peer : 'a handle;
  mutable enq_help_id : int; (* the paper's enq.id helping bookmark *)
  deq_req : deq_request A.t; (* current (latest published) request *)
  mutable deq_peer : 'a handle;
  retired : bool Atomic.t; (* see [retire]: failed/departed thread *)
  stats : Op_stats.t;
}

type 'a t = {
  q : 'a segment A.t; (* first live segment (the paper's Q) *)
  tail_index : int A.t; (* T *)
  head_index : int A.t; (* H *)
  oldest : int A.t; (* I: id of oldest segment, -1 while cleaning *)
  ring : 'a handle option A.t; (* registration anchor *)
  null_segment : 'a segment; (* hzdp sentinel, id = max_int *)
  patience : int;
  max_garbage : int;
  seg_shift : int;
  seg_mask : int;
  reclamation : bool;
  reclaimed : int A.t;
  cleanups : int A.t; (* cleanup runs that actually reclaimed *)
  allocated : int A.t; (* segments ever allocated fresh *)
  wasted : int A.t; (* segments that lost the append CAS *)
  recycled : int A.t; (* segments served from the pool *)
  (* Free list of retired segments (the paper's free()/free_list goes
     through the allocator; we recycle explicitly so that the GC is
     kept off the enqueue/dequeue hot path — DESIGN.md §2.4).  A
     Treiber stack whose nodes are freshly allocated per push and
     never reused: that freshness is what makes CAS ABA-safe under
     GC.  (Threading the stack through the recycled segments' own
     [next] fields would reuse nodes and reintroduce ABA.) *)
  pool : 'a pool_node option A.t;
  pool_size : int A.t;
  pool_limit : int;
  (* Bounded mode (DESIGN.md §11): [segment_cap] is the hard bound on
     segments ever created ([max_int] = unbounded, the default);
     [seg_budget] is the remaining fresh-allocation budget, consumed
     by FAA reservation in [obtain_segment] — the same
     reserve-before-touch discipline as [pool_push], so the count of
     segments in existence (live + pooled + private) can never exceed
     the cap.  [enq_capacity] is the advisory admission line (in
     values) that [try_enqueue] holds producers to so they stay away
     from the blocking allocation wait; [cap_hits] counts acquire
     attempts that found the pool empty at the cap. *)
  segment_cap : int;
  enq_capacity : int;
  seg_budget : int A.t;
  cap_hits : int A.t;
  (* Retired handle slots awaiting recycling ([register] pops one
     instead of growing the ring), so ring length is bounded by the
     peak number of concurrently registered domains.  Same fresh-node
     Treiber discipline as [pool]. *)
  free_handles : 'a free_node option A.t;
  (* Path counters of handles whose slots were recycled, folded in
     under the cleanup token so [stats] keeps counting departed
     domains' operations. *)
  departed_stats : Op_stats.t;
  (* Per-domain handle cache for push/pop: a domain-local slot, no
     lock and no shared table on the hot path.  The slot also installs
     a [Domain.at_exit] hook that retires the handle when its domain
     terminates, closing the paper's §3.6 leak for the implicit API. *)
  dls_handle : 'a handle option Domain.DLS.key;
}

(* ------------------------------------------------------------------ *)
(* Construction (L.27-32)                                             *)

let segment_uids = Primitives.Padding.make_padded_atomic 0
let handle_uids = Primitives.Padding.make_padded_atomic 0

(* Each plane is allocated in one sweep, so its boxes are laid out
   consecutively by the minor heap: walking cells in ticket order
   walks memory in address order.  The boxes themselves stay
   unpadded — cells are visited by exactly one FAA winner on the fast
   path, so padding 2^shift cells would cost memory without removing
   any real contention. *)
let new_segment shift seg_id =
  let n = 1 lsl shift in
  {
    seg_id;
    uid = Atomic.fetch_and_add segment_uids 1;
    next = A.make None;
    values = Array.init n (fun _ -> A.make bottom_w);
    enqs = Array.init n (fun _ -> A.make Enq_bottom);
    deqs = Array.init n (fun _ -> A.make Deq_bottom);
  }

let create ?(patience = 10) ?(segment_shift = 10) ?(max_garbage = 16) ?(reclamation = true)
    ?segment_cap () =
  assert (patience >= 0);
  assert (segment_shift >= 0 && segment_shift <= 20);
  assert (max_garbage >= 2);
  let segment_cap =
    match segment_cap with
    | None -> max_int
    | Some c ->
      (* The cap must leave room for the reclamation slack: cleanup
         only runs once [max_garbage] segments of garbage accumulated,
         and the active window plus in-flight private extensions need
         segments of their own on top of it.  Below [max_garbage + 4]
         the advisory admission line would be non-positive and every
         producer would sit in the allocation wait. *)
      if c < max_garbage + 4 then
        invalid_arg "Wfqueue.create: segment_cap must be >= max_garbage + 4";
      if not reclamation then
        invalid_arg "Wfqueue.create: segment_cap requires reclamation (cleanup refills the pool)";
      c
  in
  let first = new_segment segment_shift 0 in
  (* Every queue-level atomic another domain can write sits on its own
     cache line(s): T and H are the paper's two contended FAA words
     and must not invalidate each other (Listing 1's whole point);
     [oldest], the pool/free-list heads and the churn counters are
     CASed/FAAed by concurrent cleaners and would otherwise share
     lines with T/H or each other, turning cleanup traffic into
     hot-path misses. *)
  {
    q = A.make_contended first;
    tail_index = A.make_contended 0;
    head_index = A.make_contended 0;
    oldest = A.make_contended 0;
    ring = A.make_contended None;
    null_segment =
      { seg_id = max_int; uid = -1; next = A.make None; values = [||]; enqs = [||]; deqs = [||] };
    patience;
    max_garbage;
    seg_shift = segment_shift;
    seg_mask = (1 lsl segment_shift) - 1;
    reclamation;
    reclaimed = A.make_contended 0;
    cleanups = A.make_contended 0;
    allocated = A.make_contended 1;
    wasted = A.make_contended 0;
    recycled = A.make_contended 0;
    pool = A.make_contended None;
    pool_size = A.make_contended 0;
    (* In bounded mode the pool admits every segment the cap admits:
       with [pool_limit = segment_cap], [pool_push]'s reservation can
       never find the pool full (at most cap - 1 segments are ever
       pushable while one stays live), so a retired segment is never
       dropped to the GC — dropping one would leak a unit of the
       allocation budget and shrink the queue's capacity for good. *)
    pool_limit = (if segment_cap = max_int then max 32 (4 * max_garbage) else segment_cap);
    segment_cap;
    enq_capacity =
      (if segment_cap = max_int then max_int
       else (segment_cap - max_garbage - 2) lsl segment_shift);
    seg_budget = A.make_contended (if segment_cap = max_int then max_int else segment_cap - 1);
    cap_hits = A.make_contended 0;
    free_handles = A.make_contended None;
    departed_stats = Primitives.Padding.copy_as_padded (Op_stats.create ());
    dls_handle = Domain.DLS.new_key (fun () -> None);
  }

let patience t = t.patience

(* ------------------------------------------------------------------ *)
(* Segment pool                                                       *)

(* Pop a retired segment for reuse; its cells are already reset (done
   off the hot path when it was retired). *)
let rec pool_pop q =
  match A.get q.pool with
  | None -> None
  | Some node as top ->
    if A.compare_and_set q.pool top node.rest then begin
      ignore (A.fetch_and_add q.pool_size (-1));
      A.set node.pooled.next None;
      ignore (A.fetch_and_add q.recycled 1);
      Some node.pooled
    end
    else pool_pop q

(* Return a clean (reset) segment to the pool, unless it is full — in
   which case the GC simply collects the segment.  The FAA on
   [pool_size] is the admission decision itself (a reservation taken
   before touching the list), not a decoupled estimate: concurrent
   pushers each reserve a distinct slot, so the pool can never
   overshoot [pool_limit], and the counter never drops below the list
   length (pushes increment before linking; pops unlink before
   decrementing).  At quiescence the counter equals the list length. *)
let pool_push q s =
  if A.fetch_and_add q.pool_size 1 >= q.pool_limit then
    (* full: give the reservation back and let the GC take [s] *)
    ignore (A.fetch_and_add q.pool_size (-1))
  else
    let rec link () =
      let top = A.get q.pool in
      if not (A.compare_and_set q.pool top (Some { pooled = s; rest = top })) then link ()
    in
    link ()

let reset_segment s =
  if tracing () then tracef (fun () -> Printf.sprintf "reset: uid=%d seg=%d" s.uid s.seg_id);
  Array.iter (fun v -> A.set v bottom_w) s.values;
  Array.iter (fun e -> A.set e Enq_bottom) s.enqs;
  Array.iter (fun d -> A.set d Deq_bottom) s.deqs

(* ------------------------------------------------------------------ *)
(* Handle ring                                                        *)

let next_handle h = match A.get h.ring_next with Some n -> n | None -> h

(* Peer advancement skips retired handles (threads that failed or
   deregistered, §3.6 "thread failure"): helping them is harmless but
   wasted, and a ring dominated by dead peers would slow the helping
   rotation.  Falls back to [h] itself when everyone else is gone.
   Top-level recursion (not a local [let rec]) because successful
   dequeues advance their peer on the hot path — a capturing closure
   here would be an allocation per dequeue. *)
let rec next_live_from stop n =
  if n == stop then n
  else if Atomic.get n.retired then next_live_from stop (next_handle n)
  else n

let next_live_handle h = next_live_from h (next_handle h)

(* The paper's §3.6 "thread failure" gap: a thread that dies (or
   departs) mid-operation leaves its hazard pointer set and blocks
   reclamation forever (the paper defers to DEBRA as future work).
   [retire] is the recovery hook: it clears the handle's hazard
   pointer, marks it so the helping rotation and the cleanup scan skip
   it, and donates its ring slot to the free stack so a future
   [register] can recycle it instead of growing the ring.  Calling it
   on a handle whose owner is actually still running an operation is
   unsound (the cleared hazard pointer could let its segments be
   recycled under it) — callers must know the thread is gone, e.g.
   after Domain.join or a failure detector; the push/pop wrappers
   install it as a [Domain.at_exit] hook.  Idempotent: the CAS on
   [retired] makes sure one retirement pushes exactly one free-stack
   node, so a handle can be retired both explicitly and by the
   domain-termination hook. *)
let retire q h =
  if Atomic.compare_and_set h.retired false true then begin
    if tracing () then tracef (fun () -> Printf.sprintf "h%d retire" h.hid);
    A.set h.hzdp q.null_segment;
    let rec push () =
      let top = A.get q.free_handles in
      if not (A.compare_and_set q.free_handles top (Some { freed = h; more = top })) then push ()
    in
    push ()
  end

let rec pop_free_handle q =
  match A.get q.free_handles with
  | None -> None
  | Some node as top ->
    if A.compare_and_set q.free_handles top node.more then Some node.freed
    else pop_free_handle q

(* Registration adopts the queue's current first segment; to do so
   safely against concurrent segment recycling it takes the cleanup
   token (the paper's [I = -1] mutual exclusion), so no cleaner can
   retire that segment mid-registration — and, symmetrically, no
   cleaner can scan a recycled slot while its state is half-reset,
   since cleanup also requires the token.  Registration is a one-time
   per-thread cost, never on an operation path. *)
let rec acquire_cleanup_token q =
  let i = A.get q.oldest in
  if i >= 0 && A.compare_and_set q.oldest i (-1) then i
  else begin
    A.cpu_relax ();
    acquire_cleanup_token q
  end

(* Reset a retired slot for a new owner.  Token held, so nothing scans
   the intermediate states; liveness ([retired := false]) is published
   last.  The request pointers go back to settled records: a stale
   helper may still hold the old owner's last record, but that record
   is closed and immutable apart from its already-settled state, so
   nothing it does can reach the new owner's requests. *)
let recycle_handle q h seg =
  if tracing () then tracef (fun () -> Printf.sprintf "h%d recycle slot" h.hid);
  Op_stats.absorb ~into:q.departed_stats h.stats;
  A.set h.head seg;
  A.set h.tail seg;
  A.set h.hzdp q.null_segment;
  A.set h.enq_req (settled_enq_request ());
  A.set h.deq_req (settled_deq_request ());
  h.enq_help_id <- 0;
  Atomic.set h.retired false;
  h

let register q =
  let token = acquire_cleanup_token q in
  let seg = A.get q.q in
  let h =
    match pop_free_handle q with
    | Some h -> recycle_handle q h seg (* still linked: ring does not grow *)
    | None ->
      (* Per-handle hot words on their own lines: [head]/[tail]/[hzdp]
         are owner-written per operation but scanned by every cleaner
         (update/verify), the request fields are written by the owner
         and CASed by helpers, [retired] is read on the push/pop hot
         path and by the helping rotation, and [stats] is owner-
         written per operation.  Unpadded, consecutive registrations
         allocate these boxes back to back, so domain A's enqueue
         prologue would invalidate domain B's request word — false
         sharing between handles that never logically interact. *)
      let rec h =
        {
          hid = Atomic.fetch_and_add handle_uids 1;
          head = A.make_contended seg;
          tail = A.make_contended seg;
          ring_next = A.make None;
          hzdp = A.make_contended q.null_segment;
          enq_req = A.make_contended (settled_enq_request ());
          enq_peer = h;
          enq_help_id = 0;
          deq_req = A.make_contended (settled_deq_request ());
          deq_peer = h;
          retired = Primitives.Padding.make_padded_atomic false;
          stats = Primitives.Padding.copy_as_padded (Op_stats.create ());
        }
      in
      let rec link () =
        match A.get q.ring with
        | None -> if not (A.compare_and_set q.ring None (Some h)) then link ()
        | Some anchor ->
          let succ = A.get anchor.ring_next in
          let succ_or_anchor = match succ with Some _ -> succ | None -> Some anchor in
          A.set h.ring_next succ_or_anchor;
          if not (A.compare_and_set anchor.ring_next succ (Some h)) then link ()
      in
      link ();
      h
  in
  h.enq_peer <- next_live_handle h;
  h.deq_peer <- next_live_handle h;
  A.set q.oldest token;
  h

(* ------------------------------------------------------------------ *)
(* Reclamation (Listing 5) and the segment freelist acquire           *)

(* [cleanup] sits before [find_cell] (unlike the paper's listing
   order) because the bounded-mode segment acquire below helps run it
   from inside the wait loop. *)

let is_null_hzdp q seg = seg == q.null_segment

(* L.248-249 *)
let verify q (seg : 'a segment ref) hzdp =
  if (not (is_null_hzdp q hzdp)) && hzdp.seg_id < (!seg).seg_id then seg := hzdp

(* L.239-247: try to advance a handle's head or tail pointer so an
   idle thread does not block reclamation (Dijkstra's protocol with
   the pointer's owner). *)
let update q (from_ : 'a segment A.t) (to_ : 'a segment ref) owner =
  let n = A.get from_ in
  if n.seg_id < (!to_).seg_id then begin
    if not (A.compare_and_set from_ n !to_) then begin
      let n' = A.get from_ in
      if n'.seg_id < (!to_).seg_id then to_ := n'
    end;
    verify q to_ (A.get owner.hzdp)
  end

(* L.222-238.  One deliberate strengthening over the pseudocode: §3.6
   states that a segment is retired only once "both T and H have
   moved past i×N", but Listing 5 derives the reclaim candidate [e]
   from head pointers alone.  When H runs ahead of T (a batch
   dequeue reserves k cells past the last value; dequeuers that passed
   the EMPTY check race for the last one) that lets [e] pass segments
   that future enqueues, whose FAA tickets trail H, must still reach.  We cap [e] at
   segment(min(T,H)/N) to enforce the stated condition.

   The threshold test runs on every dequeue; everything it needs is
   read into locals first, and the scan's [ref]s are only built once
   the CAS on the token has actually opened a cleanup.

   [e0] is the initial reclaim candidate.  The dequeue-path entry
   ([cleanup]) uses the paper's choice, the cleaner's own cached head
   segment — always recent for a thread that dequeues.  The bounded-
   mode waiter entry passes the chain-end segment it already holds
   instead: a pure producer's cached head never advances on its own
   (only peers' cleanups move it), so the paper's candidate would keep
   such a cleaner's gate shut forever even with a full window of
   index-distance garbage behind it (the PR 9 pool-storm wedge). *)
let cleanup_candidate q h e0 =
  let i = A.get q.oldest in
  let bound = min (A.get q.tail_index) (A.get q.head_index) lsr q.seg_shift in
  if i >= 0 && min e0.seg_id bound - i >= q.max_garbage && A.compare_and_set q.oldest i (-1)
  then begin
    let e = ref e0 in
    (* From here we hold the cleanup token (oldest = -1); restore it
       on any exception so a failed cleaner cannot wedge registration
       and future cleanups. *)
    let token_released = ref false in
    let release_token value =
      A.set q.oldest value;
      token_released := true
    in
    Fun.protect ~finally:(fun () -> if not !token_released then A.set q.oldest i)
    @@ fun () ->
    (* token held ([oldest = -1]): a stall blocks registration and
       other cleanups (they spin on the token) but no operation; a
       death must restore the token via the protector above *)
    if I.enabled then I.hit Inject.Cleanup_token_held;
    (* walk from the oldest segment to the bound if the cleaner's own
       head is beyond it (T and H only grow, so this is conservative) *)
    if (!e).seg_id > bound then begin
      let s = ref (A.get q.q) in
      while (!s).seg_id < bound do
        match A.get (!s).next with
        | Some n -> s := n
        | None -> assert false (* the chain spans [oldest, e] *)
      done;
      e := !s
    end;
    (* The paper's scan covers every handle except the cleaner's own
       (p starts at h->next): a cleaner that rarely enqueues would
       retire segments while its own stale tail still points inside
       them, and its next enqueue would traverse retired memory
       (found by the model checker, seed-393 interleaving; DESIGN.md
       §3.5).  Advance our own pointers first; on the dequeue-path
       entry our hzdp is null here, so this cannot cap [e].  A bounded-
       mode waiter cleaning from inside [obtain_segment] still has its
       op-start pin published — the fast paths advance it to the chain
       end before helping (see the wait loop), so it does not cap [e]
       either; a slow-path waiter's pin caps [e] conservatively, which
       is exactly what keeps its open request's cells safe. *)
    update q h.tail e h;
    update q h.head e h;
    let visited = ref [] in
    (* Forward traversal over the handle ring.  Retired slots are
       skipped outright: their hazard pointer is null (cleared by
       [retire], and a retired handle runs no operations that could
       set it again), and their stale head/tail pointers are never
       dereferenced before [recycle_handle] resets them under this
       same token, so they neither pin segments nor need advancing.
       With slot recycling the ring holds at most peak-concurrency
       slots, so the skip is O(1) per retired slot per cleanup. *)
    let p = ref (next_handle h) in
    while !p != h && (!e).seg_id > i do
      if not (Atomic.get (!p).retired) then begin
        verify q e (A.get (!p).hzdp);
        update q (!p).head e !p;
        update q (!p).tail e !p;
        visited := !p :: !visited
      end;
      p := next_handle !p
    done;
    (* L.234-235: reverse traversal catches hazard-pointer "backward
       jumps" (a helper adopting a peer's older head) that happened
       during the forward pass.  [visited] is already in reverse
       order. *)
    let rec backward = function
      | [] -> ()
      | ph :: rest ->
        if (!e).seg_id > i then begin
          verify q e (A.get ph.hzdp);
          backward rest
        end
    in
    backward !visited;
    if (!e).seg_id <= i then release_token i (* nothing reclaimable; reopen *)
    else begin
      (* Unlink segments [i, e.id) and recycle them (the paper's
         free_list): after the verify scans no thread can reach them,
         so resetting and reusing is safe for the same reason free()
         is safe in the original.  Collect first — pushing to the
         pool reuses the next fields the walk follows. *)
      let first = A.get q.q in
      if tracing () then
        tracef (fun () ->
            Printf.sprintf "h%d cleanup: retiring segs [%d,%d) (uids %d..)" h.hid first.seg_id
              (!e).seg_id first.uid);
      A.set q.q !e;
      release_token (!e).seg_id;
      ignore (A.fetch_and_add q.reclaimed ((!e).seg_id - i));
      ignore (A.fetch_and_add q.cleanups 1);
      let retired = ref [] in
      let cursor = ref first in
      while !cursor != !e do
        retired := !cursor :: !retired;
        cursor :=
          (match A.get (!cursor).next with
          | Some n -> n
          | None -> assert false (* the chain reaches e *))
      done;
      List.iter
        (fun seg ->
          reset_segment seg;
          (* Reset but not yet in the pool: a death here
             ([Seg_pool_release], and the rest of [retired] with it)
             leaks the segments — in bounded mode that is lost
             capacity (the budget units are spent and the segments
             unreachable), never a safety violation; the token is
             already released, so nothing wedges. *)
          if I.enabled then I.hit Inject.Seg_pool_release;
          pool_push q seg)
        !retired
    end
  end

(* The dequeue-path entry: the paper's Listing 5, candidate = the
   cleaner's own cached head segment. *)
let cleanup q h = cleanup_candidate q h (A.get h.head)

(* Fresh-or-recycled segment with the given id, private to the caller
   until it publishes it.  [chain_end] is the live segment the caller
   holds at the end of the list (the one whose [next] it will CAS);
   [advance] says the caller is on a fast path whose only protected
   obligation is the walk target itself — see below.

   The fresh branch must first win a unit of the allocation budget:
   the FAA on [seg_budget] is a reservation (the [pool_push]
   discipline), handed back on loss, so segments ever created never
   exceed [segment_cap].  Unbounded queues start with a [max_int]
   budget and always win — the only cost the default build pays is
   this one FAA per fresh allocation, off the hot path.

   When the budget is gone and the pool is empty the acquire waits.
   This wait is meant to be rare: blocking enqueues park hazard-free
   at the admission line ([wait_admission]) before taking a ticket,
   and dequeues answer EMPTY before the FAA, so only the
   advisory overshoot (racing producers past the admission read)
   lands here, with [max_garbage + 2] segments of headroom to absorb
   it.  The waiter cannot just poll for someone else's [cleanup] to
   refill the pool: under a spike every overshooting thread can end
   up in this wait at once, and with nobody left to run [cleanup] the
   poll would deadlock on reclaimable garbage.  So the waiter helps:
   each poll iteration attempts a cleanup itself with the caller's
   handle.  This is safe mid-[find_cell] because the waiter sits at
   the end of the chain: the reclaim bound [e] is a live in-chain
   segment at or before [chain_end], so the segment the walk holds
   survives, and every other thread's window is protected by its
   hazard pointer exactly as for any third-party cleanup.

   Two details make the helped cleanup actually able to make progress
   (both found by the PR 9 wall-clock spike storm, which wedged about
   once in forty runs without them):

   - The candidate is [chain_end], not the waiter's cached head.  A
     pure producer's cached head only moves when someone else's
     cleanup advances it, so the paper's candidate would keep the
     gate in [cleanup] shut forever for exactly the thread doing the
     waiting.

   - On fast paths ([advance]) the waiter first re-publishes its own
     hazard pointer at [chain_end].  The advance is monotone (the
     op-start pin is at or before the chain end, and everything the
     operation touches from here on — the walk segment, the target
     cell — is at or after it), so no re-validation is needed; and it
     stops the waiter's own stale pin from capping every cleanup at
     its op-start segment, the self-deadlock where all threads wait
     on garbage none of them is allowed to reclaim.  Slow paths and
     helpers must NOT advance: their pin also protects the open
     request cells (their own or a peer's) below the chain end, so
     they keep the conservative pin and rely on fast-path waiters or
     completing peers to clear the garbage.

   A thread parked in the wait holds no reservation, so dying there
   ([Seg_pool_acquire]) leaves the budget accounting exact. *)
let rec obtain_segment q h advance chain_end seg_id =
  match pool_pop q with
  | Some s ->
    if tracing () then
      tracef (fun () ->
          Printf.sprintf "obtain: recycle uid=%d as seg=%d (was %d)" s.uid seg_id s.seg_id);
    s.seg_id <- seg_id;
    s
  | None ->
    if A.fetch_and_add q.seg_budget (-1) > 0 then begin
      ignore (A.fetch_and_add q.allocated 1);
      let s = new_segment q.seg_shift seg_id in
      if tracing () then
        tracef (fun () -> Printf.sprintf "obtain: fresh uid=%d seg=%d" s.uid seg_id);
      s
    end
    else begin
      ignore (A.fetch_and_add q.seg_budget 1);
      ignore (A.fetch_and_add q.cap_hits 1);
      if I.enabled then I.hit Inject.Seg_pool_acquire;
      if advance then A.set h.hzdp chain_end;
      if q.reclamation then cleanup_candidate q h chain_end;
      A.cpu_relax ();
      obtain_segment q h advance chain_end seg_id
    end

(* ------------------------------------------------------------------ *)
(* find_cell (L.33-52) and index advancing (L.53-55)                  *)

(* The walk is a top-level recursion over explicit parameters: a local
   [let rec] capturing [q]/[target] would allocate a closure on every
   find_cell — i.e. on every operation.  [advance] flags the fast-path
   call sites where a bounded-mode acquire wait may re-publish the
   caller's hazard at the chain end (see [obtain_segment]); it is
   dead weight for unbounded queues, whose acquires never wait. *)
let rec find_cell_walk q h who advance cell_id target s =
  if s.seg_id = target then s
  else if s.seg_id > target then begin
    (* our segment was retired and relabeled under us: restart from
       the oldest live segment (always at or before any cell a
       thread may legitimately ask for) *)
    let fresh_start = A.get q.q in
    if fresh_start.seg_id > target then
      invalid_arg
        (Printf.sprintf "Wfqueue.find_cell[%s]: cell %d is in a reclaimed segment (%d > %d)" who
           cell_id fresh_start.seg_id target);
    find_cell_walk q h who advance cell_id target fresh_start
  end
  else begin
    match A.get s.next with
    | Some next -> find_cell_walk q h who advance cell_id target next
    | None ->
      if tracing () then
        tracef (fun () ->
            Printf.sprintf "find_cell[%s]: extend from seg %d toward %d (cell %d)" who s.seg_id
              target cell_id);
      let fresh = obtain_segment q h advance s (s.seg_id + 1) in
      if A.compare_and_set s.next None (Some fresh) then
        find_cell_walk q h who advance cell_id target fresh
      else begin
        (* L.42-44: another thread extended the list; ours goes
           back to the pool (the paper frees it here).  It was
           never published, so it is still clean. *)
        ignore (A.fetch_and_add q.wasted 1);
        pool_push q fresh;
        find_cell_walk q h who advance cell_id target s
      end
  end

(* [from] is a segment whose id is <= cell_id / N (normally the
   caller's cached head/tail segment); returns the segment containing
   the cell — the caller stores it back into its own pointer, which
   is the paper's side effect through the Segment pointer-to-pointer
   without a per-call [ref] cell.  The cell itself is the planes'
   entries at offset [cell_id land q.seg_mask] — pure arithmetic, no
   cell object to chase or allocate. *)
let find_cell ?(who = "?") ?(advance = false) q h (from : 'a segment) cell_id =
  let target = cell_id lsr q.seg_shift in
  (* A cleaner can advance another thread's head/tail pointer (L.239,
     "update") concurrently with that thread's operation: its hazard
     pointer keeps the segments alive, but the advanced pointer may
     now be past the cell the thread is looking for (slow-path
     commits and helping look at cells at or before the pointer's old
     position).  The paper's pseudocode would silently index into the
     wrong segment in that rare interleaving; we restart from the
     oldest live segment, which the hazard-pointer protocol
     guarantees is at or before any cell a thread can legitimately
     ask for. *)
  let start = if from.seg_id <= target then from else A.get q.q in
  if start.seg_id > target then
    invalid_arg
      (Printf.sprintf
         "Wfqueue.find_cell[%s]: cell %d is in a reclaimed segment (%d > %d) T=%d H=%d sp=%d" who
         cell_id start.seg_id target (A.get q.tail_index) (A.get q.head_index) from.seg_id);
  find_cell_walk q h who advance cell_id target start

(* Publish [src]'s current segment as [h]'s hazard pointer and
   re-validate that [src] still holds it (Michael's hazard-pointer
   acquire protocol).  Listing 5 publishes without re-validating; a
   thread descheduled between reading a segment pointer and
   publishing it can then expose a hazard pointer to an
   already-reclaimed segment, which a concurrent cleaner would adopt
   as its reclaim boundary (in the original C this is a read of freed
   memory).  Re-validation closes the window: a segment still
   installed in a live head/tail pointer cannot have been reclaimed,
   and once the hazard pointer to it is visible no cleaner will
   reclaim it.  The loop re-runs only when a cleanup advanced [src]
   concurrently, which is itself global progress. *)
let rec protect_pointer h (src : 'a segment A.t) =
  let s = A.get src in
  A.set h.hzdp s;
  (* the window the re-validation defends: the hazard pointer is
     published but not yet known valid *)
  if I.enabled then I.hit Inject.Hazard_published;
  if A.get src == s then s else protect_pointer h src

(* L.53-55: ensure the head or tail index is at or beyond [cid]. *)
let rec advance_end_for_linearizability index cid =
  let e = A.get index in
  if e < cid && not (A.compare_and_set index e cid) then
    advance_end_for_linearizability index cid

(* ------------------------------------------------------------------ *)
(* Enqueue (Listing 3)                                                *)

(* L.60-61 *)
let try_to_claim_req state ~id ~cell_id =
  A.compare_and_set state (Packed.make ~pending:true ~id)
    (Packed.make ~pending:false ~id:cell_id)

(* L.62-64: [cv] is the cell's entry in the value plane; [w] the bare
   value word. *)
let enq_commit q cv w cid =
  advance_end_for_linearizability q.tail_index (cid + 1);
  A.set cv w

(* L.65-69: returns -1 on success, or the failed cell index that
   becomes the slow-path request id (cell ids are FAA tickets, never
   negative).  An int instead of [int option] keeps the contended
   retry path allocation-free. *)
let enq_fast (q : 'a t) (h : 'a handle) (v : 'a) =
  let i = A.fetch_and_add q.tail_index 1 in
  (* ticket [i] is consumed but nothing is deposited yet: a stall here
     forces dequeuers to poison the cell; a death abandons it *)
  if I.enabled then I.hit Inject.Enq_fast_after_faa;
  if tracing () then
    tracef (fun () ->
        let t = A.get h.tail in
        Printf.sprintf "h%d enq_fast: ticket %d, tail seg=%d uid=%d hzdp seg=%d" h.hid i t.seg_id
          t.uid (A.get h.hzdp).seg_id);
  let s = find_cell ~who:"enq_fast" ~advance:true q h (A.get h.tail) i in
  A.set h.tail s;
  if A.compare_and_set s.values.(i land q.seg_mask) bottom_w (Obj.repr v) then begin
    if tracing () then tracef (fun () -> Printf.sprintf "h%d enq_fast: deposit at %d" h.hid i);
    -1
  end
  else begin
    if P.enabled then h.stats.enq_cas_failures <- h.stats.enq_cas_failures + 1;
    if tracing () then tracef (fun () -> Printf.sprintf "h%d enq_fast: cell %d unusable" h.hid i);
    i
  end

(* L.73-84: the slow path's cell-acquisition loop, traversing with a
   local tail segment because the claimed cell may be earlier than the
   last cell visited here.  Top-level recursion: the segment threads
   through as a parameter instead of the former per-call [ref]. *)
let rec enq_slow_acquire q h r cell_id tmp_tail =
  let i = A.fetch_and_add q.tail_index 1 in
  let s = find_cell ~who:"enq_slow_acq" q h tmp_tail i in
  let j = i land q.seg_mask in
  (* L.79-84, Dijkstra's protocol with the helpers *)
  if
    (let won = A.compare_and_set s.enqs.(j) Enq_bottom (Enq_req r) in
     if tracing () then
       tracef (fun () -> Printf.sprintf "h%d enq_slow: reserve cell %d -> %b" h.hid i won);
     won)
    && A.get s.values.(j) == bottom_w
  then begin
    let claimed = try_to_claim_req r.enq_state ~id:cell_id ~cell_id:i in
    if tracing () then
      tracef (fun () -> Printf.sprintf "h%d enq_slow: self-claim at %d -> %b" h.hid i claimed)
    (* invariant: request claimed (even if the claim CAS failed) *)
  end
  else if Packed.pending (A.get r.enq_state) then begin
    (* ticket [i] was consumed but the transfer did not complete
       there: the cell is abandoned to the dequeuers' help_enq *)
    if P.enabled then h.stats.cells_skipped <- h.stats.cells_skipped + 1;
    enq_slow_acquire q h r cell_id s
  end

(* L.70-89 *)
let enq_slow (q : 'a t) (h : 'a handle) (v : 'a) cell_id =
  (* publish a fresh single-use request: the record is fully built
     (value and pending state) before the one SC store that makes it
     reachable, so helpers never observe a half-published request.
     The allocation is confined to the slow path (patience already
     exhausted); the fast path stays allocation-free. *)
  if tracing () then tracef (fun () -> Printf.sprintf "h%d enq_slow: publish id=%d" h.hid cell_id);
  let r =
    { enq_value = Obj.repr v; enq_state = A.make (Packed.make ~pending:true ~id:cell_id) }
  in
  A.set h.enq_req r;
  (* the request is visible: from here the paper guarantees helpers
     complete it even if this thread never runs another step *)
  if I.enabled then I.hit Inject.Enq_slow_published;
  enq_slow_acquire q h r cell_id (A.get h.tail);
  (* L.86-88: the request is claimed for some cell; find it, commit. *)
  let id = Packed.id (A.get r.enq_state) in
  if tracing () then
    tracef (fun () -> Printf.sprintf "h%d enq_slow: committing claimed cell %d" h.hid id);
  if id < cell_id then
    failwith
      (Printf.sprintf "enq_slow: claimed cell %d below request id %d (stale claim)" id cell_id);
  if id lsr q.seg_shift < (A.get q.q).seg_id then
    failwith
      (Printf.sprintf
         "enq_slow: claimed cell %d (seg %d) reclaimed; req=%d hzdp=%d oldest=%d T=%d" id
         (id lsr q.seg_shift) cell_id (A.get h.hzdp).seg_id (A.get q.oldest)
         (A.get q.tail_index));
  (* claimed but not yet committed: a death here loses the value (the
     enqueue never returned), a stall forces the claimed cell's
     dequeuer onto its own slow path *)
  if I.enabled then I.hit Inject.Enq_slow_pre_commit;
  let s = find_cell ~who:"enq_slow_commit" q h (A.get h.tail) id in
  A.set h.tail s;
  enq_commit q s.values.(id land q.seg_mask) (Obj.repr v) id

(* L.56-59: the patience loop, as a top-level recursion over the
   remaining patience. *)
let rec enq_attempt (q : 'a t) (h : 'a handle) (v : 'a) p =
  let failed = enq_fast q h v in
  if failed < 0 then h.stats.fast_enqueues <- h.stats.fast_enqueues + 1
  else if p > 0 then enq_attempt q h v (p - 1)
  else begin
    enq_slow q h v failed;
    h.stats.slow_enqueues <- h.stats.slow_enqueues + 1
  end

let enqueue_with_hzdp q h v = enq_attempt q h v q.patience

(* ------------------------------------------------------------------ *)
(* help_enq (L.90-127), called by dequeuers on every visited cell     *)

(* The dequeue-side result convention: a bare word that is the cell's
   value, [top_w] (cell closed without a value), or [empty_w] (queue
   observed empty) — no [Henq_*] variant box on the per-cell path. *)
let value_or_top cv =
  let w = A.get cv in
  assert (w != bottom_w) (* the cell was already ⊤ or a value *);
  w

(* L.94-100: advance the helping bookmark to a peer whose request this
   thread may help; returns that peer's current request record (the
   settled peer itself is [h.enq_peer] after the call).  The caller
   re-reads the state from the returned record: on a single-use record
   the id never changes, so the re-read can only observe the pending
   bit settling — never a different request. *)
let rec settle_enq_peer h =
  let p = h.enq_peer in
  let r = A.get p.enq_req in
  let s = A.get r.enq_state in
  if h.enq_help_id = 0 || h.enq_help_id = Packed.id s then r
  else begin
    h.enq_help_id <- 0;
    h.enq_peer <- next_live_handle p;
    settle_enq_peer h
  end

(* [s] is the segment holding cell [i]; the cell's two fields this
   function touches are bound once from the planes up front. *)
let help_enq q h (s : 'a segment) i =
  let j = i land q.seg_mask in
  let cv = s.values.(j) in
  let ce = s.enqs.(j) in
  let poisoned = A.compare_and_set cv bottom_w top_w in
  if tracing () && poisoned then
    tracef (fun () -> Printf.sprintf "h%d help_enq: poison cell %d" h.hid i);
  let w0 = if poisoned then top_w else A.get cv in
  if is_value w0 then w0 (* L.91: the cell already holds a value *)
  else begin
    (* c.value is ⊤: try to complete a slow-path enqueue here. *)
    (match A.get ce with
    | Enq_req _ | Enq_top -> ()
    | Enq_bottom ->
      let r = settle_enq_peer h in
      let p = h.enq_peer in
      let st = A.get r.enq_state in
      (* L.101-108 *)
      if
        Packed.pending st
        && Packed.id st <= i
        && not
             (let won = A.compare_and_set ce Enq_bottom (Enq_req r) in
              if tracing () && won then
                tracef (fun () ->
                    Printf.sprintf "h%d help_enq: reserved cell %d for peer h%d (req id %d)"
                      h.hid i p.hid (Packed.id st));
              won)
      then h.enq_help_id <- Packed.id st
      else h.enq_peer <- next_live_handle p;
      (* L.109-111: close the cell to enqueue helpers if unused *)
      (match A.get ce with
      | Enq_bottom -> ignore (A.compare_and_set ce Enq_bottom Enq_top)
      | Enq_req _ | Enq_top -> ()));
    (* invariant: c.enq is a request or ⊤e (L.113) *)
    match A.get ce with
    | Enq_bottom -> assert false
    | Enq_top ->
      (* L.114-116: nobody will fill this cell *)
      if A.get q.tail_index <= i then empty_w else top_w
    | Enq_req r ->
      (* L.117-127.  [r] is single-use: its value is an immutable
         field, so whatever we commit below is THE value of the
         request installed in this cell — a stale read cannot hand us
         a different (earlier or later) request's value. *)
      let st = A.get r.enq_state in
      let v = r.enq_value in
      if Packed.id st > i then begin
        (* L.119-122: request unsuitable for this cell *)
        if A.get cv == top_w && A.get q.tail_index <= i then empty_w else value_or_top cv
      end
      else begin
        (* L.123-126.  The paper's second disjunct compares the STALE
           [st] against (0, i); if the owner's self-claim for this very
           cell lands between our read of [st] and our claim CAS, the
           stale comparison misses it, we abandon the cell as ⊤, and
           the owner then commits into a cell no dequeuer will visit
           again: the value is lost.  (Found by the model checker —
           seed-58 interleaving; see DESIGN.md §3.4.)  Re-reading the
           state closes the race: on this single-use record, (0, i)
           means exactly "this request was claimed for this cell". *)
        (* a helper poised on the claim CAS: dying here must leave the
           request completable by the owner or any other helper *)
        if I.enabled then I.hit Inject.Help_enq_pre_claim;
        let claimed_by_us = try_to_claim_req r.enq_state ~id:(Packed.id st) ~cell_id:i in
        if P.enabled && claimed_by_us && r != A.get h.enq_req then
          h.stats.help_enqueues <- h.stats.help_enqueues + 1;
        if tracing () && claimed_by_us then
          tracef (fun () ->
              Printf.sprintf "h%d help_enq: claimed req (id %d) for cell %d" h.hid (Packed.id st) i);
        let claimed_for_cell =
          claimed_by_us
          || Packed.equal (A.get r.enq_state) (Packed.make ~pending:false ~id:i)
             && A.get cv == top_w
        in
        if claimed_for_cell then begin
          assert (v != bottom_w) (* a claimed request had its value published *);
          if tracing () then
            tracef (fun () -> Printf.sprintf "h%d help_enq: commit value at cell %d" h.hid i);
          enq_commit q cv v i
        end;
        value_or_top cv (* L.127 *)
      end
  end

(* ------------------------------------------------------------------ *)
(* Dequeue (Listing 4)                                                *)

(* L.158-205 *)
let help_deq q h helpee =
  (* the record is bound once: if the helpee republishes while we
     work, every CAS below targets the old (already closed) record
     and fails — a republication can never be confused with an
     announcement, which is the ABA the reused-record representation
     allowed (a fresh request's ticket could numerically equal a
     stale helper's announced candidate under the batch entry
     points; see the type's comment). *)
  let r = A.get helpee.deq_req in
  let s0 = A.get r.deq_state in
  let id = r.deq_id in
  (* L.162: no help needed (not pending, or a stale mixed read).
     Checked before any local state is built: this function also runs
     on every successful dequeue (peer helping), and its common exit
     must not allocate.  The [ref]s below belong to the actual
     helping path only. *)
  if Packed.pending s0 && Packed.id s0 >= id then begin
    if P.enabled && helpee != h then h.stats.help_dequeues <- h.stats.help_dequeues + 1;
    (* L.163-165: local segment pointer for announced cells; publish
       it as our hazard pointer (validated, see protect_pointer),
       then re-read the request state. *)
    let ha = ref (protect_pointer h helpee.head) in
    let s = ref (A.get r.deq_state) in
    let prior = ref id and i = ref id and cand = ref 0 in
    let finished = ref false in
    while not !finished do
      (* L.168-180: search for a candidate cell, unless one is already
         announced.  [hc] is a second local segment pointer so that
         [ha] is not advanced past announced cells. *)
      let hc = ref !ha in
      while !cand = 0 && Packed.id !s = !prior do
        incr i;
        let seg = find_cell ~who:"help_deq_cand" q h !hc !i in
        hc := seg;
        let w = help_enq q h seg !i in
        if w == empty_w then cand := !i
        else if
          w != top_w
          && (match A.get seg.deqs.(!i land q.seg_mask) with
             | Deq_bottom -> true
             | Deq_top | Deq_req _ -> false)
        then cand := !i
        else s := A.get r.deq_state
      done;
      if !cand <> 0 then begin
        (* L.181-185: try to announce our candidate *)
        let announced =
          A.compare_and_set r.deq_state
            (Packed.make ~pending:true ~id:!prior)
            (Packed.make ~pending:true ~id:!cand)
        in
        if tracing () && announced then
          tracef (fun () ->
              Printf.sprintf "h%d help_deq(h%d): announce cell %d" h.hid helpee.hid !cand);
        s := A.get r.deq_state
      end;
      (* L.187-188: someone completed the request.  (The paper also
         re-checks the request id here; on a single-use record the id
         cannot change, so the pending bit alone decides.) *)
      if not (Packed.pending !s) then finished := true
      else begin
        (* L.189-199: inspect the announced candidate *)
        let seg = find_cell ~who:"help_deq_ann" q h !ha (Packed.id !s) in
        ha := seg;
        let j = Packed.id !s land q.seg_mask in
        let satisfied =
          A.get seg.values.(j) == top_w
          || A.compare_and_set seg.deqs.(j) Deq_bottom (Deq_req r)
          || (match A.get seg.deqs.(j) with
             | Deq_req r' -> r' == r
             | Deq_bottom | Deq_top -> false)
        in
        if satisfied then begin
          (* about to close the helpee's request: a stalled/dying
             helper must not block other helpers from closing it *)
          if I.enabled then I.hit Inject.Help_deq_pre_close;
          let closed =
            A.compare_and_set r.deq_state !s (Packed.make ~pending:false ~id:(Packed.id !s))
          in
          if tracing () && closed then
            tracef (fun () ->
                Printf.sprintf "h%d help_deq(h%d): closed at cell %d" h.hid helpee.hid
                  (Packed.id !s));
          finished := true
        end
        else begin
          (* L.200-204 *)
          prior := Packed.id !s;
          if Packed.id !s >= !i then begin
            cand := 0;
            i := Packed.id !s
          end
        end
      end
    done
  end

(* L.149-157: returns the value word or [empty_w]. *)
let deq_slow q h cell_id =
  if tracing () then tracef (fun () -> Printf.sprintf "h%d deq_slow: publish id=%d" h.hid cell_id);
  (* fresh single-use request; see [deq_request]'s comment *)
  let r = { deq_id = cell_id; deq_state = A.make (Packed.make ~pending:true ~id:cell_id) } in
  A.set h.deq_req r;
  (* the dequeue request is visible: peers' helping rotation must
     finish it if this thread stalls or dies before self-helping *)
  if I.enabled then I.hit Inject.Deq_slow_published;
  help_deq q h h;
  let i = Packed.id (A.get r.deq_state) in
  let s = find_cell ~who:"deq_slow_res" q h (A.get h.head) i in
  A.set h.head s;
  let w = A.get s.values.(i land q.seg_mask) in
  advance_end_for_linearizability q.head_index (i + 1);
  assert (w != bottom_w) (* the request completed at this cell *);
  if w == top_w then empty_w else w

(* EMPTY before the FAA (DESIGN.md §3): read H, then T; H >= T
   linearizes EMPTY at the T read, both indices being monotone.  The
   paper's dequeue burns a head ticket even on an empty queue, and the
   cell it poisons sends the enqueuer that later draws that index round
   again — down the slow path once patience runs out — and drags H
   through segments nobody fills (under a segment cap, out of the
   budget producers are blocked on).  The order of the two reads is the
   whole argument: T first lets a complete enqueue and a complete
   dequeue slip in between, and EMPTY a non-empty queue.  Hence the
   [let]: OCaml evaluates the operands of [>=] right to left. *)
let[@inline] observed_empty q =
  let h = A.get q.head_index in
  h >= A.get q.tail_index

(* L.128-148: the paper's dequeue/deq_fast pair fused into one
   patience recursion.  Each round is [observed_empty], then L.140-148
   (FAA a head ticket, help the cell's enqueuer, claim); the word
   result is the value, or [empty_w] — no [Dq_*] variant box and no
   segment [ref] per round. *)
let rec deq_attempt q h p =
  if observed_empty q then begin
    h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
    h.stats.empty_dequeues <- h.stats.empty_dequeues + 1;
    empty_w
  end
  else begin
  let i = A.fetch_and_add q.head_index 1 in
  (* head ticket consumed, cell not yet helped/claimed: a death here
     can strand the value at cell [i] (linearized as dequeue-then-
     crash), which is exactly what a crashed consumer does *)
  if I.enabled then I.hit Inject.Deq_fast_after_faa;
  let s = find_cell ~who:"deq_fast" ~advance:true q h (A.get h.head) i in
  A.set h.head s;
  let w = help_enq q h s i in
  if w == empty_w then begin
    if tracing () then tracef (fun () -> Printf.sprintf "h%d deq_fast: cell %d EMPTY" h.hid i);
    h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
    h.stats.empty_dequeues <- h.stats.empty_dequeues + 1;
    empty_w
  end
  else if
    w != top_w && A.compare_and_set s.deqs.(i land q.seg_mask) Deq_bottom Deq_top
  then begin
    if tracing () then
      tracef (fun () -> Printf.sprintf "h%d deq_fast: took value at cell %d" h.hid i);
    h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
    w
  end
  else begin
    if tracing () then tracef (fun () -> Printf.sprintf "h%d deq_fast: failed at cell %d" h.hid i);
    if P.enabled then h.stats.deq_cas_failures <- h.stats.deq_cas_failures + 1;
    if p > 0 then deq_attempt q h (p - 1)
    else begin
      let w = deq_slow q h i in
      h.stats.slow_dequeues <- h.stats.slow_dequeues + 1;
      if w == empty_w then h.stats.empty_dequeues <- h.stats.empty_dequeues + 1;
      w
    end
  end
  end

let dequeue_with_hzdp q h =
  let w = deq_attempt q h q.patience in
  (* L.135-138: a successful dequeue helps its dequeue peer *)
  if w != empty_w then begin
    help_deq q h h.deq_peer;
    h.deq_peer <- next_live_handle h.deq_peer
  end;
  w

(* ------------------------------------------------------------------ *)
(* Bounded-mode admission (DESIGN.md §11)                             *)

(* Admission is decided *before* the tail FAA.  Once an enqueue holds
   a ticket — let alone published a slow-path request that helpers may
   complete concurrently — it cannot be abandoned: a mid-protocol
   rejection retried by the caller would deposit the value twice (the
   helpers' copy and the retry's).  So a bounded enqueue either
   rejects up front or runs the unmodified protocol to completion,
   and the protocol text below the admission line is byte-identical
   to the unbounded build's.

   The check is advisory — a racy tail/head read, the same contract
   as the shard router's capacity check: in-flight producers can
   overshoot the line by their count.  Its job is to keep producers
   away from the hard cap, which is enforced independently by the
   allocation budget in [obtain_segment]; the [max_garbage + 2]
   segments the line holds back absorb the reclamation slack (garbage
   below [oldest] waiting for a cleanup) and the overshoot. *)
let has_admission q k =
  q.segment_cap = max_int
  || A.get q.tail_index - A.get q.head_index + k <= q.enq_capacity

(* The blocking enqueue's backpressure point.  It matters that the
   wait happens *here*, before [protect_pointer] and the FAA, and not
   down in [obtain_segment]: a thread parked at the admission line
   holds no ticket and no hazard pointer, so it cannot pin the oldest
   segment against reclamation while it waits.  A waiter inside
   [obtain_segment] pins its op-start segment, capping every
   cleanup's reclaim bound ([verify] via [update]); fast-path waiters
   escape by advancing their pin to the chain end (see
   [obtain_segment]), but slow-path and helping waiters cannot, so
   keeping the bulk of the waiting hazard-free up front confines the
   in-protocol budget waits to the bounded admission overshoot, which
   the [max_garbage + 2] headroom absorbs.

   Progress here needs consumers: the wait clears when dequeues move
   [head_index] — that is the backpressure contract, not a fault. *)
let wait_admission q k =
  if not (has_admission q k) then begin
    ignore (A.fetch_and_add q.cap_hits 1);
    while not (has_admission q k) do
      (* same fault window as the in-protocol acquire wait: nothing
         held, so a death or park here strands nothing *)
      if I.enabled then I.hit Inject.Seg_pool_acquire;
      A.cpu_relax ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Public operations: Listing 5's hazard-pointer augmentation         *)

let enqueue_unchecked (q : 'a t) (h : 'a handle) (v : 'a) =
  ignore (protect_pointer h h.tail);
  enqueue_with_hzdp q h v;
  A.set h.hzdp q.null_segment

let enqueue (q : 'a t) (h : 'a handle) (v : 'a) =
  if q.segment_cap <> max_int then wait_admission q 1;
  enqueue_unchecked q h v

(* The word-returning dequeue shared by [dequeue] (option) and
   [dequeue_or] (default).  Only the [option] wrapper allocates — the
   unavoidable [Some] box of that API; [dequeue_or] returns the bare
   value and is the zero-allocation dequeue ([Wfqueue_int], and the
   alloc probe's subject). *)
let dequeue_raw (q : 'a t) (h : 'a handle) =
  ignore (protect_pointer h h.head);
  let w = dequeue_with_hzdp q h in
  A.set h.hzdp q.null_segment;
  if q.reclamation then cleanup q h;
  w

let dequeue (q : 'a t) (h : 'a handle) : 'a option =
  let w = dequeue_raw q h in
  if w == empty_w then None else Some (Obj.obj w)

let dequeue_or (q : 'a t) (h : 'a handle) (default : 'a) : 'a =
  let w = dequeue_raw q h in
  if w == empty_w then default else Obj.obj w

(* ------------------------------------------------------------------ *)
(* Batch operations: one FAA reserves k consecutive cells             *)

(* The batch paths live in their own functions so the single-operation
   hot path above is byte-identical with or without them (the bench
   gate's compile-out check).  Safety piggybacks on the single-op
   protocol: a reserved cell that cannot complete on its fast attempt
   falls back to the per-cell slow path, so helping and wait-freedom
   hold cell by cell exactly as for k = 1.  The hazard pointer
   published before the FAA covers every reserved cell: cell ids only
   grow past the protected segment, and cleanup never reclaims at or
   beyond a live hazard pointer. *)

let enq_batch_unchecked (q : 'a t) (h : 'a handle) (vs : 'a array) =
  let k = Array.length vs in
  if k > 0 then begin
    ignore (protect_pointer h h.tail);
    let first = A.fetch_and_add q.tail_index k in
    (* k tail tickets are consumed and none of the values deposited:
       the widest abandoned window the algorithm can create.  Dying
       here abandons all k cells to the dequeuers' help_enq, which
       poisons them one by one. *)
    if I.enabled then I.hit Inject.Enq_batch_after_faa;
    if P.enabled then begin
      h.stats.enq_batches <- h.stats.enq_batches + 1;
      h.stats.enq_batch_cells <- h.stats.enq_batch_cells + k
    end;
    for j = 0 to k - 1 do
      let i = first + j in
      let s = find_cell ~who:"enq_batch" ~advance:true q h (A.get h.tail) i in
      A.set h.tail s;
      if A.compare_and_set s.values.(i land q.seg_mask) bottom_w (Obj.repr vs.(j)) then
        h.stats.fast_enqueues <- h.stats.fast_enqueues + 1
      else begin
        (* the cell was poisoned while we worked through the batch:
           per-cell fallback, with no patience retry — the ticket is
           already ours and a retry would burn a fresh one *)
        if P.enabled then begin
          h.stats.enq_cas_failures <- h.stats.enq_cas_failures + 1;
          h.stats.enq_batch_fallbacks <- h.stats.enq_batch_fallbacks + 1
        end;
        enq_slow q h vs.(j) i;
        h.stats.slow_enqueues <- h.stats.slow_enqueues + 1
      end
    done;
    A.set h.hzdp q.null_segment
  end

let enq_batch (q : 'a t) (h : 'a handle) (vs : 'a array) =
  let k = Array.length vs in
  if q.segment_cap <> max_int && k > 0 then
    (* a batch wider than the admission line can never be admitted
       whole; wait for as much of the line as it can cover and let
       the allocation budget absorb the rest (callers that need the
       all-or-nothing contract use [try_enq_batch]) *)
    wait_admission q (min k q.enq_capacity);
  enq_batch_unchecked q h vs

let deq_batch (q : 'a t) (h : 'a handle) k : 'a option array =
  if k <= 0 then [||]
  else if observed_empty q then begin
    (* EMPTY before the FAA, as in [deq_attempt]: k EMPTY answers, all
       linearized at the T read, and no head ticket burnt *)
    h.stats.fast_dequeues <- h.stats.fast_dequeues + k;
    h.stats.empty_dequeues <- h.stats.empty_dequeues + k;
    Array.make k None
  end
  else begin
    ignore (protect_pointer h h.head);
    let first = A.fetch_and_add q.head_index k in
    (* k head tickets consumed, no cell helped or claimed yet: dying
       here can strand up to k values (dequeue-then-crash, k times) *)
    if I.enabled then I.hit Inject.Deq_batch_after_faa;
    if P.enabled then begin
      h.stats.deq_batches <- h.stats.deq_batches + 1;
      h.stats.deq_batch_cells <- h.stats.deq_batch_cells + k
    end;
    let out = Array.make k None in
    let got = ref false in
    for j = 0 to k - 1 do
      let i = first + j in
      let s = find_cell ~who:"deq_batch" ~advance:true q h (A.get h.head) i in
      A.set h.head s;
      let w = help_enq q h s i in
      if w == empty_w then begin
        h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
        h.stats.empty_dequeues <- h.stats.empty_dequeues + 1
      end
      else if
        w != top_w && A.compare_and_set s.deqs.(i land q.seg_mask) Deq_bottom Deq_top
      then begin
        h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
        out.(j) <- Some (Obj.obj w);
        got := true
      end
      else begin
        if P.enabled then begin
          h.stats.deq_cas_failures <- h.stats.deq_cas_failures + 1;
          h.stats.deq_batch_fallbacks <- h.stats.deq_batch_fallbacks + 1
        end;
        let w = deq_slow q h i in
        h.stats.slow_dequeues <- h.stats.slow_dequeues + 1;
        if w == empty_w then h.stats.empty_dequeues <- h.stats.empty_dequeues + 1
        else begin
          out.(j) <- Some (Obj.obj w);
          got := true
        end
      end
    done;
    if !got then begin
      help_deq q h h.deq_peer;
      h.deq_peer <- next_live_handle h.deq_peer
    end;
    A.set h.hzdp q.null_segment;
    if q.reclamation then cleanup q h;
    out
  end

(* Cell loop of [deq_batch_into]: a top-level recursion (a local
   [let rec] would box a closure per call, against the PR 6 zero-
   allocation discipline).  Values are compacted to the front of
   [out]; returns how many were written. *)
let rec deq_batch_into_loop q h (out : 'a array) k first j n =
  if j = k then n
  else begin
    let i = first + j in
    let s = find_cell ~who:"deq_batch_into" ~advance:true q h (A.get h.head) i in
    A.set h.head s;
    let w = help_enq q h s i in
    if w == empty_w then begin
      h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
      h.stats.empty_dequeues <- h.stats.empty_dequeues + 1;
      deq_batch_into_loop q h out k first (j + 1) n
    end
    else if w != top_w && A.compare_and_set s.deqs.(i land q.seg_mask) Deq_bottom Deq_top
    then begin
      h.stats.fast_dequeues <- h.stats.fast_dequeues + 1;
      out.(n) <- Obj.obj w;
      deq_batch_into_loop q h out k first (j + 1) (n + 1)
    end
    else begin
      if P.enabled then begin
        h.stats.deq_cas_failures <- h.stats.deq_cas_failures + 1;
        h.stats.deq_batch_fallbacks <- h.stats.deq_batch_fallbacks + 1
      end;
      let w = deq_slow q h i in
      h.stats.slow_dequeues <- h.stats.slow_dequeues + 1;
      if w == empty_w then begin
        h.stats.empty_dequeues <- h.stats.empty_dequeues + 1;
        deq_batch_into_loop q h out k first (j + 1) n
      end
      else begin
        out.(n) <- Obj.obj w;
        deq_batch_into_loop q h out k first (j + 1) (n + 1)
      end
    end
  end

(* The allocation-free batch dequeue: same reservation protocol as
   [deq_batch], but values land bare in the caller's array (no [Some]
   per cell, no result-array allocation) with the remainder filled
   with [default].  [Array.length out] is the ticket batch size. *)
let deq_batch_into (q : 'a t) (h : 'a handle) (out : 'a array) ~(default : 'a) : int =
  let k = Array.length out in
  if k = 0 then 0
  else if observed_empty q then begin
    h.stats.fast_dequeues <- h.stats.fast_dequeues + k;
    h.stats.empty_dequeues <- h.stats.empty_dequeues + k;
    Array.fill out 0 k default;
    0
  end
  else begin
    ignore (protect_pointer h h.head);
    let first = A.fetch_and_add q.head_index k in
    if I.enabled then I.hit Inject.Deq_batch_after_faa;
    if P.enabled then begin
      h.stats.deq_batches <- h.stats.deq_batches + 1;
      h.stats.deq_batch_cells <- h.stats.deq_batch_cells + k
    end;
    let n = deq_batch_into_loop q h out k first 0 0 in
    if n > 0 then begin
      help_deq q h h.deq_peer;
      h.deq_peer <- next_live_handle h.deq_peer
    end;
    Array.fill out n (k - n) default;
    A.set h.hzdp q.null_segment;
    if q.reclamation then cleanup q h;
    n
  end

(* ------------------------------------------------------------------ *)
(* Bounded-mode admission wrappers (DESIGN.md §11)                    *)

(* [has_admission]/[wait_admission] live above the public operations;
   the try-wrappers go through the *unchecked* entry points so a
   failed re-check by a racing producer cannot turn an admitted
   [try_enqueue] into a blocking one. *)

let try_enqueue (q : 'a t) (h : 'a handle) (v : 'a) =
  has_admission q 1
  && begin
    enqueue_unchecked q h v;
    true
  end

let enqueue_exn q h v = if not (try_enqueue q h v) then raise Would_block

let try_enq_batch (q : 'a t) (h : 'a handle) (vs : 'a array) =
  has_admission q (Array.length vs)
  && begin
    enq_batch_unchecked q h vs;
    true
  end

let enq_batch_exn q h vs = if not (try_enq_batch q h vs) then raise Would_block

(* ------------------------------------------------------------------ *)
(* Implicit per-domain handles                                        *)

(* The push/pop hot path: one domain-local read plus one atomic load
   of the [retired] flag — no lock, no shared table.  The slow branch
   runs once per (domain, queue) lifetime: it registers a handle,
   caches it in the domain-local slot, and installs a [Domain.at_exit]
   hook so the handle is retired (and its ring slot donated for
   recycling) when the domain terminates.  The [retired] check guards
   against a caller explicitly retiring the cached handle: push/pop
   then transparently re-register. *)
let domain_handle q =
  match Domain.DLS.get q.dls_handle with
  | Some h when not (Atomic.get h.retired) -> h
  | Some _ | None ->
    let h = register q in
    Domain.DLS.set q.dls_handle (Some h);
    Domain.at_exit (fun () -> retire q h);
    h

let push q v = enqueue q (domain_handle q) v
let pop q = dequeue q (domain_handle q)

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)

let approx_length q = max 0 (A.get q.tail_index - A.get q.head_index)

let fold_handles q f acc =
  match A.get q.ring with
  | None -> acc
  | Some first ->
    let rec go h acc =
      let acc = f acc h in
      let n = next_handle h in
      if n == first then acc else go n acc
    in
    go first acc

let stats q =
  let total = Op_stats.create () in
  Op_stats.add ~into:total q.departed_stats;
  fold_handles q
    (fun () h -> Op_stats.add ~into:total h.stats)
    ();
  total

let reset_stats q =
  Op_stats.reset q.departed_stats;
  fold_handles q (fun () h -> Op_stats.reset h.stats) ()

let ring_handles q = fold_handles q (fun acc _ -> acc + 1) 0

let live_handles q =
  fold_handles q (fun acc h -> if Atomic.get h.retired then acc else acc + 1) 0

let free_handle_slots q =
  let rec go n acc = match n with None -> acc | Some { more; _ } -> go more (acc + 1) in
  go (A.get q.free_handles) 0
let handle_stats h = h.stats
let reclaimed_segments q = A.get q.reclaimed
let cleanup_runs q = A.get q.cleanups
let allocated_segments q = A.get q.allocated
let wasted_segments q = A.get q.wasted
let recycled_segments q = A.get q.recycled
let pooled_segments q = A.get q.pool_size

let live_segments q =
  let rec count s acc =
    match A.get s.next with Some n -> count n (acc + 1) | None -> acc + 1
  in
  count (A.get q.q) 0

let oldest_segment_id q = A.get q.oldest
let segment_cap q = if q.segment_cap = max_int then None else Some q.segment_cap
let enq_capacity q = if q.segment_cap = max_int then None else Some q.enq_capacity
let cap_hits q = A.get q.cap_hits

let probe_enabled = P.enabled
let injector_enabled = I.enabled

(* One coherent telemetry view: the merged path/event counters
   (including departed handles, so recycled slots' history is counted
   exactly once) plus the segment-churn and ring gauges.  Exact at
   quiescence; tear-free but racy concurrently, which is what a
   monitoring scrape wants. *)
let snapshot q =
  {
    Obs.Snapshot.ops = stats q;
    segments =
      {
        Obs.Snapshot.allocated = A.get q.allocated;
        reclaimed = A.get q.reclaimed;
        recycled = A.get q.recycled;
        wasted = A.get q.wasted;
        pooled = A.get q.pool_size;
        live = live_segments q;
        cleanups = A.get q.cleanups;
        cap = (if q.segment_cap = max_int then 0 else q.segment_cap);
        cap_hits = A.get q.cap_hits;
      };
    handles =
      {
        Obs.Snapshot.ring = ring_handles q;
        live = live_handles q;
        free_slots = free_handle_slots q;
      };
    patience = q.patience;
    probe_enabled = P.enabled;
  }

(* ------------------------------------------------------------------ *)
(* Whitebox access for deterministic slow-path tests (see .mli)       *)

module Internal = struct
  (* A cell view for the whitebox tests: the owning segment plus the
     cell's offset into its planes.  The production paths never build
     one — they index the planes directly. *)
  type 'a cell = { cseg : 'a segment; coff : int; cid : int }

  let faa_tail q = A.fetch_and_add q.tail_index 1
  let faa_head q = A.fetch_and_add q.head_index 1
  let tail_index q = A.get q.tail_index
  let head_index q = A.get q.head_index

  let cell_of q h i =
    let s = find_cell ~who:"internal_cell" q h (A.get h.tail) i in
    A.set h.tail s;
    { cseg = s; coff = i land q.seg_mask; cid = i }

  let poison_cell c = A.compare_and_set c.cseg.values.(c.coff) bottom_w top_w
  let claim_cell_deq c = A.compare_and_set c.cseg.deqs.(c.coff) Deq_bottom Deq_top

  let cell_value (c : 'a cell) : 'a option =
    let w = A.get c.cseg.values.(c.coff) in
    if is_value w then Some (Obj.obj w) else None

  let enq_slow = enq_slow

  let deq_slow (q : 'a t) (h : 'a handle) cell_id : 'a option =
    let w = deq_slow q h cell_id in
    if w == empty_w then None else Some (Obj.obj w)

  let publish_enq_request (h : 'a handle) (v : 'a) cell_id =
    let r =
      { enq_value = Obj.repr v; enq_state = A.make (Packed.make ~pending:true ~id:cell_id) }
    in
    A.set h.enq_req r

  let enq_request_pending h = Packed.pending (A.get (A.get h.enq_req).enq_state)

  let enq_request_claimed_cell h =
    let s = A.get (A.get h.enq_req).enq_state in
    if Packed.pending s then None else Some (Packed.id s)

  let publish_deq_request h cell_id =
    let r = { deq_id = cell_id; deq_state = A.make (Packed.make ~pending:true ~id:cell_id) } in
    A.set h.deq_req r

  let deq_request_pending h = Packed.pending (A.get (A.get h.deq_req).deq_state)

  let help_enq q h (c : 'a cell) i : [ `Value of 'a | `Top | `Empty ] =
    assert (c.cid = i);
    let w = help_enq q h c.cseg i in
    if w == empty_w then `Empty else if w == top_w then `Top else `Value (Obj.obj w)

  let help_deq q ~helper ~helpee = help_deq q helper helpee

  let deq_request_result (q : 'a t) (h : 'a handle) : 'a option =
    let i = Packed.id (A.get (A.get h.deq_req).deq_state) in
    let s = find_cell ~who:"internal_res" q h (A.get h.head) i in
    A.set h.head s;
    let w = A.get s.values.(i land q.seg_mask) in
    advance_end_for_linearizability q.head_index (i + 1);
    if is_value w then Some (Obj.obj w) else None

  let cleanup = cleanup

  let cell_debug c h =
    let value =
      let w = A.get c.cseg.values.(c.coff) in
      if w == bottom_w then "bot" else if w == top_w then "TOP" else "VAL"
    in
    let enq =
      match A.get c.cseg.enqs.(c.coff) with
      | Enq_bottom -> "bot"
      | Enq_top -> "TOP"
      | Enq_req r -> if r == A.get h.enq_req then "REQ(this)" else "REQ(other)"
    in
    let deq =
      match A.get c.cseg.deqs.(c.coff) with
      | Deq_bottom -> "bot"
      | Deq_top -> "TOP"
      | Deq_req r -> if r == A.get h.deq_req then "DREQ(this)" else "DREQ(other)"
    in
    Printf.sprintf "val=%s enq=%s deq=%s" value enq deq

  let debug_dump q ppf =
    let seg_id_of s = if s == q.null_segment then -999 else s.seg_id in
    Format.fprintf ppf "T=%d H=%d oldest=%d q.q=%d pool=%d alloc=%d recycled=%d reclaimed=%d@."
      (A.get q.tail_index) (A.get q.head_index) (A.get q.oldest)
      (A.get q.q).seg_id (A.get q.pool_size) (A.get q.allocated)
      (A.get q.recycled) (A.get q.reclaimed);
    match A.get q.ring with
    | None -> Format.fprintf ppf "(no handles)@."
    | Some first ->
      let rec go h idx =
        let dr = A.get h.deq_req in
        let es = A.get (A.get h.enq_req).enq_state in
        let ds = A.get dr.deq_state in
        Format.fprintf ppf
          "h%d: head=%d tail=%d hzdp=%d enq_req=%a deq_req=(id=%d,%a) help_id=%d %s@." idx
          (A.get h.head).seg_id (A.get h.tail).seg_id
          (seg_id_of (A.get h.hzdp))
          Packed.pp es dr.deq_id
          Packed.pp ds h.enq_help_id
          (Format.asprintf "%a" Op_stats.pp h.stats);
        let n = next_handle h in
        if n != first then go n (idx + 1)
      in
      go first 0

  let set_trace = set_trace

  (* Whitebox access to the segment pool, for the size-accounting
     invariant tests: the counter must never exceed [pool_limit] and
     must equal the list length at quiescence. *)
  let pool_limit q = q.pool_limit

  let pool_length q =
    let rec go n acc = match n with None -> acc | Some { rest; _ } -> go rest (acc + 1) in
    go (A.get q.pool) 0

  let pool_push_fresh q = pool_push q (new_segment q.seg_shift 0)
  let pool_take q = match pool_pop q with Some _ -> true | None -> false

  (* Bounded-mode accounting, for the cap-invariant tests: remaining
     fresh-allocation budget, and the hard identity the tests assert —
     segments ever created ([allocated]) never exceeds the cap. *)
  let seg_budget q = A.get q.seg_budget

  let set_hazard q h which =
    match which with
    | `Head -> A.set h.hzdp (A.get h.head)
    | `Tail -> A.set h.hzdp (A.get h.tail)
    | `Null -> A.set h.hzdp q.null_segment
  end

end
