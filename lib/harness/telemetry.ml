(* See telemetry.mli. *)

type run_result = {
  threads : int;
  ops : int;
  elapsed_s : float;
  mops : float;
  snapshot : Obs.Snapshot.t option;
  latency : Obs.Op_latency.t;
  alloc : Obs.Alloc_probe.t;
}

(* Wrap each operation in a latency window and a minor-words window.
   Window nesting matters: the [Int64] clock reads box, so the alloc
   window ([Gc.minor_words] before/after the bare operation) sits
   strictly inside the latency window — the meter's own bookkeeping
   lands outside what it measures.  Concurrent runs include the real
   contention effects (segment churn, helping), so these are
   whole-system words/op; the deterministic steady-state number the
   alloc test pins comes from [Alloc_bench]. *)
let timed_ops (ops : Queues.ops) (lat : Obs.Op_latency.t) (alloc : Obs.Alloc_probe.t) =
  let time cls acls f =
    let t0 = Primitives.Clock.now_ns () in
    let w0 = Gc.minor_words () in
    let r = f () in
    let w1 = Gc.minor_words () in
    let t1 = Primitives.Clock.now_ns () in
    Obs.Alloc_probe.record alloc acls (w1 -. w0);
    Obs.Op_latency.record lat (cls r) (Int64.to_float (Int64.sub t1 t0));
    r
  in
  Queues.make_ops
    ~enqueue:(fun v ->
      time (fun () -> Obs.Op_latency.Enqueue) Obs.Alloc_probe.Enqueue (fun () ->
          ops.Queues.enqueue v))
    ~dequeue:(fun () ->
      time
        (function Some _ -> Obs.Op_latency.Dequeue | None -> Obs.Op_latency.Dequeue_empty)
        Obs.Alloc_probe.Dequeue
        (fun () -> ops.Queues.dequeue ()))
    ~dequeue_or:(fun d ->
      time
        (fun r -> if r = d then Obs.Op_latency.Dequeue_empty else Obs.Op_latency.Dequeue)
        Obs.Alloc_probe.Dequeue
        (fun () -> ops.Queues.dequeue_or d))
    ~release:ops.Queues.release ()

let run (instance : Queues.instance) (spec : Workload.spec) ~threads =
  if threads < 1 || threads > Runner.max_threads then
    invalid_arg
      (Printf.sprintf "Telemetry.run: threads must be in [1, %d]" Runner.max_threads);
  ignore (Primitives.Spin_work.calibrate ());
  let start_barrier = Sync.Barrier.create (threads + 1) in
  let done_counts = Array.make threads 0 in
  let latencies = Array.init threads (fun _ -> Obs.Op_latency.create ()) in
  (* one accumulator per worker: [Gc.minor_words] counts the calling
     domain only, so cross-domain sharing would both race and
     misattribute *)
  let allocs = Array.init threads (fun _ -> Obs.Alloc_probe.create ()) in
  let workers =
    List.init threads (fun thread ->
        Domain.spawn (fun () ->
            let ops =
              timed_ops (instance.Queues.register ()) latencies.(thread) allocs.(thread)
            in
            let body = Workload.thread_body spec ~thread ops ~threads in
            Sync.Barrier.await start_barrier;
            done_counts.(thread) <- body ();
            ops.release ()))
  in
  Sync.Barrier.await start_barrier;
  let t0 = Primitives.Clock.now () in
  List.iter Domain.join workers;
  let elapsed_s = Primitives.Clock.now () -. t0 in
  let ops = Array.fold_left ( + ) 0 done_counts in
  let latency = Obs.Op_latency.create () in
  Array.iter (fun l -> Obs.Op_latency.merge_into ~into:latency l) latencies;
  let alloc = Obs.Alloc_probe.create () in
  Array.iter (fun a -> Obs.Alloc_probe.merge_into ~into:alloc a) allocs;
  {
    threads;
    ops;
    elapsed_s;
    mops = (float_of_int ops /. elapsed_s /. 1e6);
    snapshot = instance.Queues.snapshot ();
    latency;
    alloc;
  }

(* ----------------------------- the patience table ----------------- *)

type row = { patience : int; result : run_result }

let default_patiences = [ 0; 1; 10; 64 ]

let stats_table ?(kind = Workload.Fifty_fifty) ?(patiences = default_patiences)
    ?(total_ops = 400_000) ~threads () =
  List.map
    (fun patience ->
      let factory = Queues.wf_obs ~patience () in
      let instance = factory.Queues.make () in
      let spec = { (Workload.scaled kind ~total_ops) with work_ns = None } in
      { patience; result = run instance spec ~threads })
    patiences

let pp_table fmt rows =
  let line = String.make 78 '-' in
  Format.fprintf fmt "%s@\n" line;
  Format.fprintf fmt "%8s %9s %9s %10s %10s %9s %9s %9s@\n" "patience" "ops" "Mops/s"
    "slow/Mop" "enq-slow%" "deq-slow%" "cas-fail" "helps";
  Format.fprintf fmt "%s@\n" line;
  List.iter
    (fun { patience; result } ->
      match result.snapshot with
      | None -> Format.fprintf fmt "%8d (no snapshot)@\n" patience
      | Some snap ->
        let c = snap.Obs.Snapshot.ops in
        Format.fprintf fmt "%8d %9d %9.3f %10.1f %10.4f %9.4f %9d %9d@\n" patience
          result.ops result.mops
          (Obs.Counters.per_million (Obs.Counters.slow_rate c))
          (Obs.Counters.slow_enqueue_pct c)
          (Obs.Counters.slow_dequeue_pct c)
          (c.Obs.Counters.enq_cas_failures + c.Obs.Counters.deq_cas_failures)
          (c.Obs.Counters.help_enqueues + c.Obs.Counters.help_dequeues))
    rows;
  Format.fprintf fmt "%s@\n" line

(* ----------------------------- the slow-path ceiling -------------- *)

let ceiling_patience = 10
let max_slow_rate = 1e-3

type verdict = Within of float | Exceeded of float | Unmeasured

let slow_path_verdict rows =
  match
    List.find_map
      (fun { patience; result } ->
        if patience = ceiling_patience then result.snapshot else None)
      rows
  with
  | None -> Unmeasured
  | Some snap ->
    let rate = Obs.Counters.slow_rate snap.Obs.Snapshot.ops in
    if rate <= max_slow_rate then Within rate else Exceeded rate

let pp_verdict fmt v =
  let judged outcome rate =
    Format.fprintf fmt "slow-path ceiling: %s (rate %.2e at patience %d, limit %.0e)" outcome rate
      ceiling_patience max_slow_rate
  in
  match v with
  | Within rate -> judged "PASS" rate
  | Exceeded rate -> judged "FAIL" rate
  | Unmeasured ->
    Format.fprintf fmt "slow-path ceiling: not checked (no patience-%d row with telemetry)"
      ceiling_patience

(* ----------------------------- JSON ------------------------------- *)

let counters_to_json (c : Obs.Counters.t) =
  Json.Obj
    [
      ("fast_enqueues", Json.Int c.fast_enqueues);
      ("slow_enqueues", Json.Int c.slow_enqueues);
      ("fast_dequeues", Json.Int c.fast_dequeues);
      ("slow_dequeues", Json.Int c.slow_dequeues);
      ("empty_dequeues", Json.Int c.empty_dequeues);
      ("enq_cas_failures", Json.Int c.enq_cas_failures);
      ("deq_cas_failures", Json.Int c.deq_cas_failures);
      ("cells_skipped", Json.Int c.cells_skipped);
      ("help_enqueues", Json.Int c.help_enqueues);
      ("help_dequeues", Json.Int c.help_dequeues);
      ("slow_enqueue_rate", Json.Float (Obs.Counters.slow_enqueue_rate c));
      ("slow_dequeue_rate", Json.Float (Obs.Counters.slow_dequeue_rate c));
      ("slow_rate", Json.Float (Obs.Counters.slow_rate c));
    ]

let snapshot_to_json (s : Obs.Snapshot.t) =
  Json.Obj
    [
      ("ops", counters_to_json s.ops);
      ( "segments",
        Json.Obj
          [
            ("allocated", Json.Int s.segments.allocated);
            ("reclaimed", Json.Int s.segments.reclaimed);
            ("recycled", Json.Int s.segments.recycled);
            ("wasted", Json.Int s.segments.wasted);
            ("pooled", Json.Int s.segments.pooled);
            ("live", Json.Int s.segments.live);
            ("cleanups", Json.Int s.segments.cleanups);
          ] );
      ( "handles",
        Json.Obj
          [
            ("ring", Json.Int s.handles.ring);
            ("live", Json.Int s.handles.live);
            ("free_slots", Json.Int s.handles.free_slots);
          ] );
      ("patience", Json.Int s.patience);
      ("probe_enabled", Json.Bool s.probe_enabled);
    ]

let latency_to_json lat =
  Json.Obj
    (List.map
       (fun cls ->
         let s = Obs.Op_latency.summarize lat cls in
         ( Obs.Op_latency.class_name cls,
           Json.Obj
             [
               ("samples", Json.Int s.samples);
               ("p50_ns", Json.Float s.p50_ns);
               ("p90_ns", Json.Float s.p90_ns);
               ("p99_ns", Json.Float s.p99_ns);
               ("max_ns", Json.Float s.max_ns);
             ] ))
       Obs.Op_latency.classes)

let alloc_to_json (a : Obs.Alloc_probe.t) =
  Json.Obj
    [
      ("enq_ops", Json.Float a.enq_ops);
      ("deq_ops", Json.Float a.deq_ops);
      ("words_per_enqueue", Json.Float (Obs.Alloc_probe.words_per_enqueue a));
      ("words_per_dequeue", Json.Float (Obs.Alloc_probe.words_per_dequeue a));
      ("words_per_op", Json.Float (Obs.Alloc_probe.words_per_op a));
    ]

let run_result_to_json r =
  Json.Obj
    ([
       ("threads", Json.Int r.threads);
       ("ops", Json.Int r.ops);
       ("elapsed_s", Json.Float r.elapsed_s);
       ("mops", Json.Float r.mops);
       ("latency_ns", latency_to_json r.latency);
       ("alloc", alloc_to_json r.alloc);
     ]
    @ match r.snapshot with None -> [] | Some s -> [ ("snapshot", snapshot_to_json s) ])

let table_to_json rows =
  Json.List
    (List.map
       (fun { patience; result } ->
         Json.Obj [ ("patience", Json.Int patience); ("run", run_result_to_json result) ])
       rows)
