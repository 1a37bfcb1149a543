(* forkjoin: closed batch.  Each round is one root whose binary task
   tree has [depth] levels (2^20 - 1 tasks, every one spawned with
   [async] and awaited), with seeded leaf work.  Deque push/pop,
   steals, effect suspend/resume and promise resolution dominate; the
   injector and the idle policy do almost nothing.

   Latency is the time of each subtree rooted at level [cut] (128 per
   round, 8191 tasks each), from its body's start to its completion.
   Subtrees this large average out the short stalls that made the p90
   of smaller ones move by a fifth between runs. *)

open Common

let depth = 20
let leaves = 1 lsl (depth - 1)
let tasks_per_round = (1 lsl depth) - 1
let cut = 7
let limit_ns = 20_000_000

type input = { work : Bytes.t;  (** leaf spin iterations, 16-47 *) prefix : Trace.ints  (** leaf work prefix sums *) }

let generate ~seed =
  let st = Util.rng ~seed ~stream:4 in
  let work = Bytes.init leaves (fun _ -> Char.unsafe_chr (16 + Random.State.int st 32)) in
  let prefix = Trace.ints (leaves + 1) in
  for i = 0 to leaves - 1 do
    prefix.{i + 1} <- prefix.{i} + Char.code (Bytes.unsafe_get work i)
  done;
  { work; prefix }

type round = { starts : Trace.ints; stops : Trace.ints; fails : int Atomic.t; mutable finish : int }

module Make (S : Timed_sched.SCHED) = struct
  module A = Timed_sched.Await (S)

  let rec node ~traced s inp rd ~level ~i ~t_call () =
    let b = if traced then Some (Trace.body_start ~name:Trace.task_node ~parent:(-1) ~req:i ~t_call) else None in
    let t_start = if level = cut then Util.now () else 0 in
    let v =
      if level = depth - 1 then begin
        let w = Char.code (Bytes.unsafe_get inp.work i) in
        Util.spin w;
        w
      end
      else begin
        let spawn j =
          let t_call = if traced then Trace.spawn_start () else 0 in
          let p = S.async s (node ~traced s inp rd ~level:(level + 1) ~i:((2 * i) + j) ~t_call) in
          if traced then Trace.spawned (fun d -> d.spawn_ns) ~t_call;
          p
        in
        let l = spawn 0 in
        let r = spawn 1 in
        let sum = A.await b l + A.await b r in
        (* exact fan-in: the subtree's leaves, from the prefix sums *)
        let shift = depth - 1 - level in
        if sum <> inp.prefix.{(i + 1) lsl shift} - inp.prefix.{i lsl shift} then Atomic.incr rd.fails;
        sum
      end
    in
    if level = cut then begin
      Bigarray.Array1.unsafe_set rd.starts i t_start;
      Bigarray.Array1.unsafe_set rd.stops i (Util.now ())
    end;
    if level = 0 then rd.finish <- Util.now ();
    Option.iter Trace.body_finish b;
    v

  let run ctx =
    let seconds = ctx.seconds and traced = ctx.traced in
    let make () = (generate ~seed:ctx.seed, S.create ~workers:2 ()) in
    let (inp, s), setup_s = timed_setups ctx ~make ~discard:(fun (_, s) -> S.shutdown s) in
    let rd = { starts = Trace.ints (1 lsl cut); stops = Trace.ints (1 lsl cut); fails = Atomic.make 0; finish = 0 } in
    let lat = Hist.Windows.create ~seconds ~limit:limit_ns in
    let heap = heap () in
    let failed_rounds = ref 0 and rounds = ref 0 and rates = ref [] in
    (* One round.  The parent sleeps while it runs, sampling the heap
       when [m_start] is set; the round's end is stamped by its root. *)
    let round ~m_start =
      let t0 = Util.now () in
      let p = S.async s (node ~traced s inp rd ~level:0 ~i:0 ~t_call:0) in
      (match m_start with
      | Some m -> wait_sampling heap ~m_start:m ~m_end:max_int ~finished:(fun () -> S.Promise.is_resolved p)
      | None -> ());
      (match S.Promise.result p with Ok v when v = inp.prefix.{leaves} -> () | _ -> incr failed_rounds);
      incr rounds;
      match m_start with
      | None -> ()
      | Some m ->
        rates := (float_of_int tasks_per_round /. (float_of_int (rd.finish - t0) *. 1e-9)) :: !rates;
        for i = 0 to (1 lsl cut) - 1 do
          Hist.Windows.expect lat ~at:(rd.stops.{i} - m);
          Hist.Windows.add lat ~at:(rd.stops.{i} - m) (rd.stops.{i} - rd.starts.{i})
        done
    in
    let gc0 = gc_now () in
    let t0 = Util.now () in
    (* warm-up rounds, then measured rounds, each at least one *)
    let until ns ~m_start =
      let t = Util.now () in
      round ~m_start;
      while Util.now () - t < ns do
        round ~m_start
      done
    in
    until (Util.ns_of_s (warmup ctx)) ~m_start:None;
    until (Util.ns_of_s seconds) ~m_start:(Some (Util.now ()));
    let wall_ns = Util.now () - t0 in
    let gc1 = gc_now () in
    let measured = List.length !rates in
    (* the median round, so one round hit by a host stall moves it little *)
    let e2e, info =
      e2e_of ~setup_s ~heap
        ~throughput:(Util.median !rates /. 1e6)
        ~latency:(latency_metrics ~lat ~scale:1.)
    in
    let obs = S.obs s in
    let total f = List.fold_left (fun acc (o : S.pool_obs) -> acc + f o) 0 obs in
    let errors = total (fun o -> o.task_exceptions + o.aborted_promises + o.worker_deaths) in
    let layer, layer_info =
      if not traced then ([], [])
      else
        let snap = S.injector_snapshot s "default" in
        layer_metrics
          {
            wall_ns;
            workers = 2;
            values = !rounds * tasks_per_round;
            queue = snap.ops;
            enqueued = Obs.Counters.total_enqueues snap.ops;
            segments = snap.segments.allocated + snap.segments.recycled;
            cleanups = snap.segments.cleanups;
            vs_faa = 0.;
            sched = Some (total (fun o -> o.steals), total (fun o -> o.tasks_spawned), errors);
            gc0;
            gc1;
          }
    in
    S.shutdown s;
    {
      attempted = !rounds * tasks_per_round;
      failed = Atomic.get rd.fails + !failed_rounds;
      e2e;
      layer;
      info =
        info
        @ [
            Report.m "rounds" "count" (float_of_int measured);
            Report.m "steals_per_round" "count" (float_of_int (total (fun o -> o.steals)) /. float_of_int !rounds);
          ]
        @ layer_info;
      primary = value "throughput_mops" e2e;
      higher_is_better = true;
    }
end

module Production = Make (Sched.Scheduler)
module Traced = Make (Timed_sched)

let run ctx ~untraced:_ = if ctx.traced then Traced.run ctx else Production.run ctx
