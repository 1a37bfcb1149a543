(* tasks: bursty open loop against [Scheduler ~workers:2].  Every 1 ms
   tick a Poisson batch (mean 50) of requests is due; each request is
   an external [async] root that spawns 1-8 seeded subtasks and awaits
   their sum.  Between ticks the generator sleeps and the workers go
   idle, so this path crosses every layer — external submit, injector,
   worker, deque or steal, promise, completion — and the workers'
   park/wake policy sits on it.  Latency runs from the tick a request
   was due to its root's completion. *)

open Common

let tick_ns = 1_000_000
let mean_batch = 50.
let limit_ns = 1_000_000

type input = {
  ticks : int;
  first : int array;  (** requests of tick [k]: [first.(k) .. first.(k+1) - 1] *)
  fanout : Bytes.t;
  salt : int;
  expected : Trace.ints;  (** exact fan-in sum of each request *)
}

let mix x =
  let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
  (x lxor (x lsr 29)) land max_int

(* Spin iterations of subtask [j] of request [r]; also its result. *)
let sub_work ~salt r j = 100 + (mix (salt + (r * 8) + j) mod 901)

let generate ~seed ~total_s =
  let st = Util.rng ~seed ~stream:3 in
  let ticks = max 1 (int_of_float (Float.ceil (total_s *. 1e9 /. float_of_int tick_ns))) in
  let first = Array.make (ticks + 1) 0 in
  for k = 0 to ticks - 1 do
    first.(k + 1) <- first.(k) + Util.poisson st ~mean:mean_batch
  done;
  let n = first.(ticks) in
  let fanout = Bytes.init n (fun _ -> Char.unsafe_chr (1 + Random.State.int st 8)) in
  let salt = Random.State.bits st in
  let expected = Trace.ints (max 1 n) in
  for r = 0 to n - 1 do
    let s = ref 0 in
    for j = 0 to Char.code (Bytes.get fanout r) - 1 do
      s := !s + sub_work ~salt r j
    done;
    expected.{r} <- !s
  done;
  { ticks; first; fanout; salt; expected }

module Make (S : Timed_sched.SCHED) = struct
  module A = Timed_sched.Await (S)

  let sub ~traced inp ~r ~j ~rid ~t_call () =
    let b = if traced then Some (Trace.body_start ~name:Trace.task_sub ~parent:rid ~req:r ~t_call) else None in
    let w = sub_work ~salt:inp.salt r j in
    Util.spin w;
    Option.iter Trace.body_finish b;
    w

  let root ~traced s inp ~done_ns ~r ~rid ~t_call () =
    let b = if traced then Some (Trace.body_start ~name:Trace.task_root ~parent:rid ~req:r ~t_call) else None in
    let spawn j =
      let t_call = if traced then Trace.spawn_start () else 0 in
      let p = S.async s (sub ~traced inp ~r ~j ~rid ~t_call) in
      if traced then Trace.spawned (fun d -> d.spawn_ns) ~t_call;
      p
    in
    let ps = List.init (Char.code (Bytes.unsafe_get inp.fanout r)) spawn in
    let sum = List.fold_left (fun acc p -> acc + A.await b p) 0 ps in
    let t = Util.now () in
    Bigarray.Array1.unsafe_set done_ns r t;
    Option.iter Trace.body_finish b;
    Trace.close rid ~stop:t;
    sum

  (* Promises are audited, and dropped, [ring] requests after their
     submission (1.3 s of load), so the benchmark's own retention does
     not grow with the run and pass for the scheduler's memory. *)
  let ring = 1 lsl 16

  let run ctx =
    let seconds = ctx.seconds and warm = warmup ctx and traced = ctx.traced in
    let make () =
      let inp = generate ~seed:ctx.seed ~total_s:(warm +. seconds) in
      (inp, S.create ~workers:2 ())
    in
    let (inp, s), setup_s = timed_setups ctx ~make ~discard:(fun (_, s) -> S.shutdown s) in
    let n = inp.first.(inp.ticks) in
    let done_ns = Trace.ints (max 1 n) in
    let ok = Bytes.make n '\000' in
    let proms = Array.make ring (S.Promise.create ()) in
    (* every promise must resolve Ok with the exact fan-in sum *)
    let failed = ref 0 in
    let audit r =
      match S.Promise.result proms.(r land (ring - 1)) with
      | Ok v when v = inp.expected.{r} -> Bytes.unsafe_set ok r '\001'
      | _ -> incr failed
    in
    let late = Hist.create () in
    let heap = heap () in
    let gen = if traced then Some (Trace.mine ()) else None in
    let gc0 = gc_now () in
    let start = Util.now () + 1_000_000 in
    let m_start = start + Util.ns_of_s warm and m_end = start + Util.ns_of_s (warm +. seconds) in
    for k = 0 to inp.ticks - 1 do
      let due = start + (k * tick_ns) in
      Util.sleep_until due;
      Hist.add late (Util.now () - due);
      if k mod 10 = 0 && due >= m_start then sample_heap heap;
      for r = inp.first.(k) to inp.first.(k + 1) - 1 do
        if r >= ring then audit (r - ring);
        proms.(r land (ring - 1)) <-
          (match gen with
          | Some d when Trace.sample_spawn d ->
            (* a traced request: [req] spans due -> completion *)
            let rid = Trace.open_ d ~name:Trace.req ~parent:(-1) ~req:r ~start:due in
            let t0 = Util.now () in
            let p = S.async s (root ~traced s inp ~done_ns ~r ~rid ~t_call:t0) in
            let t1 = Util.now () in
            Hist.add d.async_ext_ns (t1 - t0);
            Trace.span d ~name:Trace.sched_async ~parent:rid ~req:r ~start:t0 ~stop:t1;
            p
          | _ -> S.async s (root ~traced s inp ~done_ns ~r ~rid:(-1) ~t_call:0))
      done
    done;
    for r = max 0 (n - ring) to n - 1 do
      audit r
    done;
    let wall_ns = Util.now () - start in
    let gc1 = gc_now () in
    let lat = Hist.Windows.create ~seconds ~limit:limit_ns in
    let tasks = ref 0 and all_tasks = ref 0 in
    for k = 0 to inp.ticks - 1 do
      let due = start + (k * tick_ns) in
      for r = inp.first.(k) to inp.first.(k + 1) - 1 do
        let size = 1 + Char.code (Bytes.get inp.fanout r) in
        all_tasks := !all_tasks + size;
        if due >= m_start && due < m_end then begin
          Hist.Windows.expect lat ~at:(due - m_start);
          if Bytes.get ok r = '\001' then begin
            tasks := !tasks + size;
            Hist.Windows.add lat ~at:(due - m_start) (done_ns.{r} - due)
          end
        end
      done
    done;
    let e2e, info =
      e2e_of ~setup_s ~heap
        ~throughput:(float_of_int !tasks /. seconds /. 1e6)
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
            values = !all_tasks;
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
      attempted = n;
      failed = !failed;
      e2e;
      layer;
      info = info @ gen_late_info late @ [ Report.m "task_errors" "count" (float_of_int errors) ] @ layer_info;
      primary = value "latency_p90_us" e2e;
      higher_is_better = false;
    }
end

module Production = Make (Sched.Scheduler)
module Traced = Make (Timed_sched)

let run ctx ~untraced:_ = if ctx.traced then Traced.run ctx else Production.run ctx
