(* pairs: the paper's enqueue-dequeue pairs benchmark (§5).  Closed
   loop, two domains, each alternating a generic [enqueue] and
   [dequeue] with a seeded 32-63 iteration think time between
   operations.  The queue is never empty when a dequeue starts, so the
   fast path does almost all the work: fast-path changes show here,
   EMPTY-path changes should not.

   Latency is the time of one pair averaged over a block of [block]
   pairs (two clock reads per block, not per operation). *)

open Common

let block = 64
(* 1 MiB of think times: generating them makes set-up milliseconds of
   steady work rather than a few hundred microseconds of page faults
   and thread start-up, so [setup_s] repeats from run to run. *)
let think_len = 1 lsl 20
let limit_ns = 2_000 (* SLO on the block-mean time of one pair *)

type shared = {
  go : Util.signal;  (** 0 wait, 1 run, 2 leave *)
  ready : Util.signal;
  finished : int Atomic.t;
  mutable measure_start : int;
  mutable measure_end : int;
}

type side = {
  lat : Hist.Windows.t;
  ops : int array;  (** pairs per 1-s window of the measured period *)
  mutable pairs : int;
  mutable enq_sum : int;
  mutable deq_sum : int;
  mutable deq_n : int;
  mutable empties : int;
}

let generate ~seed =
  let st = Util.rng ~seed ~stream:1 in
  Bytes.init think_len (fun _ -> Char.unsafe_chr (32 + Random.State.int st 32))

let think t pos = Char.code (Bytes.unsafe_get t (pos land (think_len - 1)))

module type QUEUE = sig
  type 'a t
  type 'a handle

  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue : 'a t -> 'a handle -> 'a option
end

module Loop (Q : QUEUE) = struct
  let traced_pair d q h ~v ~th1 ~th2 ~req =
    let pid = Trace.open_ d ~name:Trace.pair ~parent:(-1) ~req ~start:(Util.now ()) in
    Util.spin th1;
    let w0 = Util.minor_words () in
    let t0 = Util.now () in
    Q.enqueue q h v;
    let t1 = Util.now () in
    Trace.record_enqueue d ~parent:pid ~req ~t0 ~t1 ~words:(Util.minor_words () - w0);
    Util.spin th2;
    let w0 = Util.minor_words () in
    let t0 = Util.now () in
    let r = Q.dequeue q h in
    let t1 = Util.now () in
    Trace.record_dequeue d ~parent:pid ~req ~t0 ~t1 ~words:(Util.minor_words () - w0) ~empty:(Option.is_none r);
    Trace.close pid ~stop:(Util.now ());
    match r with Some x -> x | None -> -1

  (* One domain's side of the benchmark, from the start signal to
     [measure_end].  Values are [2i + d]: distinct across domains, so
     the conservation audit can sum them. *)
  let side ~traced q h tbl sh s d =
    if Util.await sh.go (fun v -> v <> 0) = 1 then begin
      let dom = if traced then Some (Trace.mine ()) else None in
      let i = ref 0 and pos = ref (d * (think_len / 2)) in
      let enq_sum = ref 0 and deq_sum = ref 0 and deq_n = ref 0 and empties = ref 0 in
      let stop = ref false in
      while not !stop do
        let t0 = Util.now () in
        for _ = 1 to block do
          let v = (!i lsl 1) lor d in
          let th1 = think tbl !pos and th2 = think tbl (!pos + 1) in
          pos := !pos + 2;
          let got =
            match dom with
            | Some dm when !i land (Trace.period - 1) = 0 -> traced_pair dm q h ~v ~th1 ~th2 ~req:!i
            | _ -> (
              Util.spin th1;
              Q.enqueue q h v;
              Util.spin th2;
              match Q.dequeue q h with Some x -> x | None -> -1)
          in
          enq_sum := !enq_sum + v;
          if got >= 0 then begin
            deq_sum := !deq_sum + got;
            incr deq_n
          end
          else incr empties;
          incr i
        done;
        let t1 = Util.now () in
        if t1 >= sh.measure_end then stop := true
        else if t0 >= sh.measure_start then begin
          let at = t1 - sh.measure_start in
          let k = at / 1_000_000_000 in
          if k < Array.length s.ops then s.ops.(k) <- s.ops.(k) + block;
          Hist.Windows.expect s.lat ~at;
          Hist.Windows.add s.lat ~at (t1 - t0)
        end
      done;
      (* written once at the end: the two sides' records sit next to
         each other in memory *)
      s.pairs <- !i;
      s.enq_sum <- !enq_sum;
      s.deq_sum <- !deq_sum;
      s.deq_n <- !deq_n;
      s.empties <- !empties;
      match dom with
      | Some dm ->
        dm.enq_calls <- !i;
        dm.deq_calls <- !i;
        dm.deq_empty <- !empties
      | None -> ()
    end;
    Atomic.incr sh.finished
end

module Wfq_loop = Loop (Wfq.Wfqueue)
module Faa_loop = Loop (Baselines.Faa_bench)

type run = { sh : shared; sides : side array; doms : unit Domain.t array }

(* Spawns the two domains and waits until both hold a handle. *)
let start ~seconds ~register ~side =
  let sh =
    { go = Util.signal (); ready = Util.signal (); finished = Atomic.make 0; measure_start = max_int; measure_end = max_int }
  in
  let sides =
    Array.init 2 (fun _ ->
        {
          lat = Hist.Windows.create ~seconds ~limit:(limit_ns * block);
          ops = Array.make (max 1 (int_of_float (Float.ceil seconds))) 0;
          pairs = 0;
          enq_sum = 0;
          deq_sum = 0;
          deq_n = 0;
          empties = 0;
        })
  in
  let doms =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let h = register () in
            Util.update sh.ready succ;
            side h sh sides.(d) d))
  in
  ignore (Util.await sh.ready (fun v -> v = 2) : int);
  { sh; sides; doms }

(* Start the domains, sample the heap while they run, join them. *)
let go r heap ~warmup ~seconds =
  let t = Util.now () in
  r.sh.measure_start <- t + Util.ns_of_s warmup;
  r.sh.measure_end <- r.sh.measure_start + Util.ns_of_s seconds;
  Util.update r.sh.go (fun _ -> 1);
  wait_sampling heap ~m_start:r.sh.measure_start ~m_end:r.sh.measure_end ~finished:(fun () ->
      Atomic.get r.sh.finished = 2);
  Array.iter Domain.join r.doms

let leave r =
  Util.update r.sh.go (fun _ -> 2);
  Array.iter Domain.join r.doms

(* Queue operations (two per pair) per second. *)
let mops r ~seconds =
  let counts = Array.map2 ( + ) r.sides.(0).ops r.sides.(1).ops in
  2. *. windowed_rate counts ~seconds /. 1e6

(* The same loop on the FAA-only baseline: the paper's upper bound. *)
let faa_mops ctx tbl =
  let seconds = Float.max 0.1 (0.2 *. ctx.seconds) in
  let q = Baselines.Faa_bench.create () in
  let r =
    start ~seconds
      ~register:(fun () -> Baselines.Faa_bench.register q)
      ~side:(fun h sh s d -> Faa_loop.side ~traced:false q h tbl sh s d)
  in
  go r (heap ()) ~warmup:(0.1 *. seconds) ~seconds;
  mops r ~seconds

let run ctx ~untraced =
  let seconds = ctx.seconds and traced = ctx.traced in
  let make () =
    let tbl = generate ~seed:ctx.seed in
    let q = Wfq.Wfqueue.create () in
    let r =
      start ~seconds
        ~register:(fun () -> Wfq.Wfqueue.register q)
        ~side:(fun h sh s d ->
          Wfq_loop.side ~traced q h tbl sh s d;
          Wfq.Wfqueue.retire q h)
    in
    (tbl, q, r)
  in
  let (tbl, q, r), setup_s = timed_setups ctx ~make ~discard:(fun (_, _, r) -> leave r) in
  let heap = heap () in
  let gc0 = gc_now () in
  let t0 = Util.now () in
  go r heap ~warmup:(warmup ctx) ~seconds;
  let wall_ns = Util.now () - t0 in
  let gc1 = gc_now () in
  (* conservation: everything enqueued was dequeued exactly once *)
  let h = Wfq.Wfqueue.register q in
  let rec drain n sum = match Wfq.Wfqueue.dequeue q h with Some x -> drain (n + 1) (sum + x) | None -> (n, sum) in
  let rest_n, rest_sum = drain 0 0 in
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 r.sides in
  let pairs = total (fun s -> s.pairs) in
  let lost = abs (pairs - (total (fun s -> s.deq_n) + rest_n)) in
  let failed = lost + if total (fun s -> s.enq_sum) <> total (fun s -> s.deq_sum) + rest_sum then 1 else 0 in
  let lat = Hist.Windows.create ~seconds ~limit:(limit_ns * block) in
  Array.iter (fun s -> Hist.Windows.merge ~into:lat s.lat) r.sides;
  let primary = mops r ~seconds in
  let e2e, info =
    e2e_of ~throughput:primary ~setup_s ~heap
      ~latency:
(latency_metrics ~lat ~scale:(1. /. float_of_int block))
  in
  let layer, layer_info =
    if not traced then ([], [])
    else
      let vs_faa = match untraced with Some (u : pass) -> u.primary /. faa_mops ctx tbl | None -> 0. in
      layer_metrics
        {
          wall_ns;
          workers = 2;
          values = pairs;
          queue = Wfq.Wfqueue.stats q;
          enqueued = pairs;
          segments = Wfq.Wfqueue.allocated_segments q + Wfq.Wfqueue.recycled_segments q;
          cleanups = Wfq.Wfqueue.cleanup_runs q;
          vs_faa;
          sched = None;
          gc0;
          gc1;
        }
  in
  {
    attempted = pairs;
    failed;
    e2e;
    layer;
    info = info @ [ Report.m "empty_dequeues" "count" (float_of_int (total (fun s -> s.empties))) ] @ layer_info;
    primary;
    higher_is_better = true;
  }
