(* The scheduler as the task workloads see it, and its traced build.

   [SCHED] is the part of [Sched.Scheduler]'s interface the workloads
   use; [Sched.Scheduler] itself satisfies it, and so does the traced
   instantiation below: the same runtime text ([Sched.Runtime.Make]),
   with the production probe and injector tiers, over [Timed_wfq] — the
   production queue with a timing wrapper around every call the runtime
   makes into it. *)

module type SCHED = sig
  type t

  module Promise : sig
    type 'a t

    val create : unit -> 'a t
    val is_resolved : 'a t -> bool
    val result : 'a t -> ('a, exn) result
    val await : 'a t -> 'a
  end

  type pool_obs = {
    name : string;
    workers : int;
    live_workers : int;
    worker_deaths : int;
    task_exceptions : int;
    tasks_completed : int;
    aborted_promises : int;
    tasks_spawned : int;
    steals : int;
    backlog : int;
  }

  val create : ?workers:int -> ?injector_cap:int -> ?deque_capacity:int -> unit -> t
  val async : ?pool:string -> t -> (unit -> 'a) -> 'a Promise.t
  val obs : t -> pool_obs list
  val injector_snapshot : t -> string -> Obs.Snapshot.t
  val shutdown : t -> unit
end

(* [S.Promise.await] inside a task body; when the body is traced ([b]
   is [Some]), its own time pauses while it waits. *)
module Await (S : SCHED) = struct
  let await b p =
    match b with
    | None -> S.Promise.await p
    | Some b ->
      Trace.body_pause b ~resolved:(S.Promise.is_resolved p);
      let v = S.Promise.await p in
      Trace.body_resume b;
      v
end

module Timed_wfq = struct
  module Q = Wfq.Wfqueue

  type 'a t = 'a Q.t
  type 'a handle = 'a Q.handle

  let create = Q.create
  let register = Q.register
  let domain_handle = Q.domain_handle
  let retire = Q.retire
  let approx_length = Q.approx_length
  let snapshot = Q.snapshot

  let timed_enqueue op q h v =
    let d = Trace.mine () in
    d.enq_calls <- d.enq_calls + 1;
    if Trace.sample d then begin
      let w0 = Util.minor_words () in
      let t0 = Util.now () in
      let r = op q h v in
      let t1 = Util.now () in
      Trace.record_enqueue d ~parent:(-1) ~req:(-1) ~t0 ~t1 ~words:(Util.minor_words () - w0);
      r
    end
    else op q h v

  let enqueue q h v = timed_enqueue Q.enqueue q h v
  let try_enqueue q h v = timed_enqueue Q.try_enqueue q h v

  (* Every injector poll reads the clock once, for the gap since this
     domain's previous poll: gaps of 200 µs and more are the workers'
     idle nap. *)
  let dequeue q h =
    let d = Trace.mine () in
    let t0 = Util.now () in
    if d.last_poll > 0 then Hist.add d.poll_gap_ns (t0 - d.last_poll);
    d.last_poll <- t0;
    d.deq_calls <- d.deq_calls + 1;
    let r =
      if Trace.sample d then begin
        let w0 = Util.minor_words () in
        let t0 = Util.now () in
        let r = Q.dequeue q h in
        let t1 = Util.now () in
        Trace.record_dequeue d ~parent:(-1) ~req:(-1) ~t0 ~t1 ~words:(Util.minor_words () - w0)
          ~empty:(Option.is_none r);
        r
      end
      else Q.dequeue q h
    in
    if Option.is_none r then d.deq_empty <- d.deq_empty + 1;
    r
end

include Sched.Runtime.Make (Obs.Probe.Disabled) (Inject.Disabled) (Timed_wfq)
