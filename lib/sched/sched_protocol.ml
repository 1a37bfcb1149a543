(* The lock-free admission / shutdown / drain protocol of the task
   scheduler ([Sched.Runtime]).  A functor over the atomic primitives
   and the run queue: production instantiates it on hardware atomics
   and [Wfq.Wfqueue]; test/test_sched.ml instantiates the same text on
   the simsched shim ([Simsched.Sim.Atomic_shim] + [Sim.Queue]) and
   explores submit-vs-shutdown-vs-worker interleavings exhaustively —
   the interleaving that strands a promise (a worker observing EMPTY,
   then [stopping], and exiting while a racing submit's task sat
   queued) lives entirely in this protocol, so this is the text that
   must be model-checked.

   The protocol's unit is the [ticket]: a queued task plus a claim
   word.  The claim is the exactly-once point — whoever wins the CAS
   runs ([run]) or cancels ([abort]) the ticket; everyone else walks
   away.  Four racing parties can reach a ticket: a worker that
   dequeued it, a thief that stole it from a worker's deque, the
   shutdown drain, and the submitter itself (when its re-check shows
   the pool closed under its feet).  First claim wins; every ticket is
   claimed by someone (argument below), so no future is ever left
   pending.

   Why nothing is stranded:

   - [submit] pushes, then re-reads [accepting].  Shutdown clears
     [accepting] {e before} setting [stopping], so any push that
     happens after [stopping] is set has a re-check that reliably
     observes [accepting = false] (SC atomics) and self-claims if
     nobody beat it to the ticket.
   - A worker exits only when a dequeue returns EMPTY {e and}
     [stopping] was already set before that dequeue started.  The run
     queue is linearizable, so a ticket pushed before [stopping] was
     set is visible to that final dequeue — EMPTY means every earlier
     ticket was already dequeued by some worker (and hence claimed:
     dequeuers claim-or-skip, never drop).
   - Tickets pushed after [stopping] are covered by the submit
     re-check above; [drain] (run by [shutdown] after joining the
     workers) additionally claims-and-aborts anything still queued,
     which closes the window where the submitter's re-check and a
     worker both declined the same ticket (impossible, but drain makes
     the argument local: queued ∧ unclaimed ⇒ drain claims it). *)

module type QUEUE = sig
  type 'a t
  type 'a handle

  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue : 'a t -> 'a handle -> 'a option
end

module Make (A : Wfq.Atomic_prims.S) (Q : QUEUE) = struct
  type ticket = {
    mutable run : unit -> unit;  (** execute the task (resolves its future) *)
    mutable abort : unit -> unit;  (** cancel it (resolves its future with [Shutdown]) *)
    claimed : bool A.t;
  }

  type t = {
    tickets : ticket Q.t;
    accepting : bool A.t;  (** cleared first by shutdown: admission gate *)
    stopping : bool A.t;  (** set second: worker exit gate *)
  }

  let create tickets =
    { tickets; accepting = A.make_contended true; stopping = A.make_contended false }

  let accepting t = A.get t.accepting
  let stopping t = A.get t.stopping
  let claim ticket = A.compare_and_set ticket.claimed false true

  (* The claim winner is the only party that ever reads [run] and
     [abort], so it swaps both for [nop] before calling one: a consumed
     queue cell or deque slot that still points at the ticket until its
     segment is recycled then pins three words, not the task's closure,
     continuation and captured state.  Plain fields suffice — the claim
     CAS orders the winner after the creator's writes, and losers never
     read them. *)
  let nop () = ()

  let fire tk f =
    tk.run <- nop;
    tk.abort <- nop;
    f ()

  let claim_run tk = claim tk && (fire tk tk.run; true)
  let claim_abort tk = claim tk && (fire tk tk.abort; true)

  let ticket ~run ~abort = { run; abort; claimed = A.make false }
  (* Pre-built tickets let the scheduler route the same claim-once unit
     through a work-stealing deque instead of the shared queue; a
     ticket outside any queue is the submitter's to claim. *)

  type admission =
    | Rejected  (** pool was closed before the push; nothing was queued *)
    | Accepted  (** queued; a worker (or the drain) owns resolution *)
    | Aborted  (** queued, but the pool closed mid-submit and the
                   submitter claimed its own ticket: [abort] already ran *)

  let submit_ticket t h tk =
    if not (A.get t.accepting) then Rejected
    else begin
      Q.enqueue t.tickets h tk;
      (* Check-then-act window closed: if the gate dropped while we
         were pushing, the drain may already have run past our ticket,
         so take responsibility unless someone else already has it. *)
      if A.get t.accepting then Accepted
      else if claim_abort tk then Aborted
      else Accepted (* a worker or the drain claimed it: it resolves *)
    end

  let submit t h ~run ~abort = submit_ticket t h (ticket ~run ~abort)

  type step =
    | Ran  (** dequeued a ticket and ran it *)
    | Stale  (** dequeued a ticket someone else had claimed *)
    | Idle  (** queue empty, pool still running *)
    | Exit  (** queue empty after [stopping]: drained, worker may leave *)

  let worker_step t h =
    (* Read [stopping] before the dequeue: EMPTY then justifies
       exiting only if the stop was already in force when the dequeue
       linearized — a ticket pushed before the stop cannot be missed
       by a dequeue that starts after it. *)
    let stopping_before = A.get t.stopping in
    match Q.dequeue t.tickets h with
    | Some ticket -> if claim_run ticket then Ran else Stale
    | None -> if stopping_before then Exit else Idle

  let begin_shutdown t =
    A.set t.accepting false;
    A.set t.stopping true

  (* Post-join sweep: claim and abort every ticket still queued.
     Returns the number aborted here (0 in every race-free run —
     workers drain the backlog before exiting). *)
  let drain t h =
    let rec go n =
      match Q.dequeue t.tickets h with
      | Some ticket -> if claim_abort ticket then go (n + 1) else go n
      | None -> n
    in
    go 0
end
