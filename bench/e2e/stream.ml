(* stream: open loop.  One producer domain sends Poisson arrivals at
   0.5 M msg/s, one consumer domain polls [dequeue_or]; each payload is
   its own due time.  The consumer outruns the arrivals, so most polls
   find the queue EMPTY: EMPTY-cell poisoning, the enqueue slow path and
   their allocation dominate here, while a fast-path-only change should
   barely move it.  Latency runs from the due time, never the send
   time, so a stalled generator charges its stall to every message it
   delays.

   The generator ([produce]) and the recorder ([deliver]) are
   allocation-free; test_alloc.ml holds them to it. *)

open Bigarray
open Common

let rate = 0.5e6
let limit_ns = 50_000

type input = { gaps : (int32, int32_elt, c_layout) Array1.t; n : int }

(* Inter-arrival gaps in ns, drawn until [total_s] is covered.  At
   least 1 ns, so due times, and hence payloads, strictly increase. *)
let generate ~seed ~total_s =
  let st = Util.rng ~seed ~stream:2 in
  let horizon = Util.ns_of_s total_s in
  let cap = int_of_float (total_s *. rate *. 1.02) + 1024 in
  let gaps = Array1.create Int32 C_layout cap in
  let rec go i t =
    if i >= cap || t >= horizon then i
    else begin
      let g = 1 + int_of_float (Util.exponential st ~mean:(1e9 /. rate)) in
      Array1.unsafe_set gaps i (Int32.of_int g);
      go (i + 1) (t + g)
    end
  in
  { gaps; n = go 0 0 }

type gen = { late : Hist.t; mutable sent_sum : int }

let traced_send d ~send ~due ~req =
  let sid = Trace.open_ d ~name:Trace.msg_send ~parent:(-1) ~req ~start:(Util.now ()) in
  let w0 = Util.minor_words () in
  let t0 = Util.now () in
  send due;
  let t1 = Util.now () in
  Trace.record_enqueue d ~parent:sid ~req ~t0 ~t1 ~words:(Util.minor_words () - w0);
  Trace.close sid ~stop:(Util.now ())

(* Walk the schedule from [start], spin until each message is due, and
   hand its due time to [send]. *)
let produce ?dom inp g ~start ~send =
  let due = ref start and sum = ref 0 in
  for i = 0 to inp.n - 1 do
    let d = !due + Int32.to_int (Array1.unsafe_get inp.gaps i) in
    due := d;
    let t = ref (Util.now ()) in
    while !t < d do
      t := Util.now ()
    done;
    Hist.add g.late (!t - d);
    (match dom with
    | Some dm when i land (Trace.period - 1) = 0 -> traced_send dm ~send ~due:d ~req:i
    | _ -> send d);
    sum := !sum + d
  done;
  g.sent_sum <- !sum

type recorder = {
  lat : Hist.Windows.t;
  mutable m_start : int;
  mutable m_end : int;
  mutable last : int;
  mutable count : int;
  mutable sum : int;
  mutable fifo_bad : int;
  mutable delivered_measured : int;
  mutable empties : int;
}

let recorder ~seconds =
  {
    lat = Hist.Windows.create ~seconds ~limit:limit_ns;
    m_start = 0;
    m_end = 0;
    last = min_int;
    count = 0;
    sum = 0;
    fifo_bad = 0;
    delivered_measured = 0;
    empties = 0;
  }

(* One delivered message.  FIFO per producer means due times arrive
   strictly increasing, which also rules out duplicates. *)
let deliver r v =
  let t = Util.now () in
  if v <= r.last then r.fifo_bad <- r.fifo_bad + 1;
  r.last <- v;
  r.count <- r.count + 1;
  r.sum <- r.sum + v;
  if v >= r.m_start && v < r.m_end then begin
    let l = t - v in
    r.delivered_measured <- r.delivered_measured + 1;
    Hist.Windows.add r.lat ~at:(v - r.m_start) l
  end

let traced_poll d q h r =
  let w0 = Util.minor_words () in
  let t0 = Util.now () in
  let v = Wfq.Wfqueue.dequeue_or q h (-1) in
  let t1 = Util.now () in
  let words = Util.minor_words () - w0 in
  if v >= 0 then begin
    let sid = Trace.open_ d ~name:Trace.msg_recv ~parent:(-1) ~req:(-1) ~start:t0 in
    Trace.record_dequeue d ~parent:sid ~req:(-1) ~t0 ~t1 ~words ~empty:false;
    deliver r v;
    Trace.close sid ~stop:(Util.now ())
  end
  else Trace.record_dequeue d ~parent:(-1) ~req:(-1) ~t0 ~t1 ~words ~empty:true;
  v

(* Poll until the producer has finished and a dequeue that started
   after that still finds the queue EMPTY: then nothing is left. *)
let consume ?dom q h r ~finished =
  let rec loop () =
    let fin = Atomic.get finished in
    let v =
      match dom with
      | Some d when Trace.sample d -> traced_poll d q h r
      | _ ->
        let v = Wfq.Wfqueue.dequeue_or q h (-1) in
        if v >= 0 then deliver r v;
        v
    in
    if v < 0 then begin
      r.empties <- r.empties + 1;
      if not fin then loop ()
    end
    else loop ()
  in
  loop ()

type shared = {
  go : Util.signal;  (** 0 wait, 1 run, 2 leave *)
  ready : Util.signal;
  finished : bool Atomic.t;  (** the producer has sent everything *)
  exited : int Atomic.t;
  mutable start : int;
  mutable m_start : int;
  mutable m_end : int;
}

let wait_go sh =
  Util.update sh.ready succ;
  Util.await sh.go (fun v -> v <> 0) = 1

let run ctx ~untraced:_ =
  let seconds = ctx.seconds and warm = warmup ctx and traced = ctx.traced in
  let make () =
    let inp = generate ~seed:ctx.seed ~total_s:(warm +. seconds) in
    let q = Wfq.Wfqueue.create () in
    let sh =
      {
        go = Util.signal ();
        ready = Util.signal ();
        finished = Atomic.make false;
        exited = Atomic.make 0;
        start = 0;
        m_start = 0;
        m_end = 0;
      }
    in
    let g = { late = Hist.create (); sent_sum = 0 } in
    let r = recorder ~seconds in
    let producer =
      Domain.spawn (fun () ->
          let h = Wfq.Wfqueue.register q in
          if wait_go sh then begin
            let dom = if traced then Some (Trace.mine ()) else None in
            produce ?dom inp g ~start:sh.start ~send:(Wfq.Wfqueue.enqueue q h);
            Option.iter (fun (d : Trace.dom) -> d.enq_calls <- inp.n) dom
          end;
          Atomic.set sh.finished true;
          Wfq.Wfqueue.retire q h;
          Atomic.incr sh.exited)
    in
    let consumer =
      Domain.spawn (fun () ->
          let h = Wfq.Wfqueue.register q in
          if wait_go sh then begin
            r.m_start <- sh.m_start;
            r.m_end <- sh.m_end;
            let dom = if traced then Some (Trace.mine ()) else None in
            consume ?dom q h r ~finished:sh.finished;
            Option.iter
              (fun (d : Trace.dom) ->
                d.deq_calls <- r.count + r.empties;
                d.deq_empty <- r.empties)
              dom
          end;
          Wfq.Wfqueue.retire q h;
          Atomic.incr sh.exited)
    in
    ignore (Util.await sh.ready (fun v -> v = 2) : int);
    (inp, q, sh, g, r, [ producer; consumer ])
  in
  let discard (_, _, sh, _, _, doms) =
    Util.update sh.go (fun _ -> 2);
    List.iter Domain.join doms
  in
  let (inp, q, sh, g, r, doms), setup_s = timed_setups ctx ~make ~discard in
  let heap = heap () in
  let gc0 = gc_now () in
  let t0 = Util.now () in
  sh.start <- t0 + 1_000_000;
  sh.m_start <- sh.start + Util.ns_of_s warm;
  sh.m_end <- sh.m_start + Util.ns_of_s seconds;
  Util.update sh.go (fun _ -> 1);
  wait_sampling heap ~m_start:sh.m_start ~m_end:sh.m_end ~finished:(fun () -> Atomic.get sh.exited = 2);
  List.iter Domain.join doms;
  let wall_ns = Util.now () - t0 in
  let gc1 = gc_now () in
  (* every message due in the measured period counts, delivered or not *)
  let due = ref sh.start in
  for i = 0 to inp.n - 1 do
    due := !due + Int32.to_int inp.gaps.{i};
    if !due >= sh.m_start && !due < sh.m_end then Hist.Windows.expect r.lat ~at:(!due - sh.m_start)
  done;
  let failed = abs (inp.n - r.count) + r.fifo_bad + if r.count = inp.n && r.sum <> g.sent_sum then 1 else 0 in
  let e2e, info =
    e2e_of ~setup_s ~heap
      ~throughput:(float_of_int r.delivered_measured /. seconds /. 1e6)
      ~latency:(latency_metrics ~lat:r.lat ~scale:1.)
  in
  let layer, layer_info =
    if not traced then ([], [])
    else
      layer_metrics
        {
          wall_ns;
          workers = 2;
          values = r.count;
          queue = Wfq.Wfqueue.stats q;
          enqueued = inp.n;
          segments = Wfq.Wfqueue.allocated_segments q + Wfq.Wfqueue.recycled_segments q;
          cleanups = Wfq.Wfqueue.cleanup_runs q;
          vs_faa = 0.;
          sched = None;
          gc0;
          gc1;
        }
  in
  {
    attempted = inp.n;
    failed;
    e2e;
    layer;
    info =
      info @ gen_late_info g.late
      @ [ Report.m "empty_polls_per_msg" "count" (float_of_int r.empties /. float_of_int (max 1 r.count)) ]
      @ layer_info;
    primary = value "latency_p90_us" e2e;
    higher_is_better = false;
  }
