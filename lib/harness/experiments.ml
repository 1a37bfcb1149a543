let default_threads = [ 1; 2; 4; 8; 16 ]

let spec_for kind ~quick ~total_ops =
  match total_ops with
  | Some n -> Workload.scaled kind ~total_ops:n
  | None -> if quick then Workload.scaled kind ~total_ops:400_000 else Workload.default kind

let row_of_platform (r : Platform.row) =
  [
    r.Platform.processor;
    Printf.sprintf "%.2f" r.Platform.clock_ghz;
    string_of_int r.Platform.processors;
    string_of_int r.Platform.cores;
    string_of_int r.Platform.hw_threads;
    r.Platform.cc_protocol;
    (if r.Platform.native_faa then "yes" else "no");
  ]

let table1 () =
  let t =
    Report.create
      ~header:[ "processor model"; "GHz"; "procs"; "cores"; "threads"; "cc proto"; "native FAA" ]
  in
  List.iter (fun r -> Report.add_row t (row_of_platform r)) Platform.paper_rows;
  Report.add_row t (row_of_platform (Platform.host ()));
  Report.print ~title:"Table 1: the paper's platforms (rows 1-4) and this host (last row)" t;
  t

let figure2 ?(quick = false) ?(threads = default_threads) ?queues ?total_ops kind =
  let queues = match queues with Some qs -> qs | None -> Queues.figure2_set in
  let spec = spec_for kind ~quick ~total_ops in
  let t =
    Report.create ~header:("queue" :: List.map (fun k -> Printf.sprintf "%dT Mops/s" k) threads)
  in
  let plotted =
    List.map
      (fun (f : Queues.factory) ->
        let intervals =
          List.map (fun k -> (Runner.measure ~quick f spec ~threads:k).Stats.Steady_state.interval)
            threads
        in
        Report.add_row t (f.Queues.name :: List.map Report.cell_ci intervals);
        {
          Plot.label = f.Queues.name;
          points = Array.of_list (List.map (fun iv -> iv.Stats.Student_t.mean) intervals);
        })
      queues
  in
  let what = Printf.sprintf "Figure 2 (%s benchmark)" (Workload.kind_to_string kind) in
  Report.print ~title:(what ^ ": throughput, think time excluded") t;
  Plot.print
    ~title:(what ^ " as a chart")
    ~x_labels:(List.map (fun k -> string_of_int k ^ "T") threads)
    ~y_label:"Mops/s" plotted;
  t

(* Table 2 measures path percentages rather than time, so a single
   invocation of a few iterations per thread count suffices; the
   queue's counters accumulate across iterations. *)
let table2 ?(quick = false) ?threads ?total_ops () =
  let threads =
    match threads with
    | Some ts -> ts
    (* The paper uses {36, 72, 144, 288} on 72 hardware threads: the
       two largest are 2x and 4x oversubscribed.  With one hardware
       thread everything is oversubscribed; we keep the 1x..4x ratios
       of the paper's sweep shape. *)
    | None -> [ 4; 8; 16; 32 ]
  in
  let spec = spec_for Workload.Fifty_fifty ~quick ~total_ops in
  let factory = Queues.wf ~patience:0 () in
  let t =
    Report.create
      ~header:[ "threads"; "% slow-path enq"; "% slow-path deq"; "% empty deq"; "ops" ]
  in
  List.iter
    (fun k ->
      let instance = factory.Queues.make () in
      let iterations = if quick then 1 else 3 in
      for _ = 1 to iterations do
        ignore (Runner.run_once instance spec ~threads:k)
      done;
      match instance.Queues.op_stats () with
      | None -> assert false (* the WF factory always reports stats *)
      | Some stats ->
        Report.add_row t
          [
            string_of_int k;
            Printf.sprintf "%.3f" (Wfq.Op_stats.slow_enqueue_pct stats);
            Printf.sprintf "%.3f" (Wfq.Op_stats.slow_dequeue_pct stats);
            Printf.sprintf "%.3f" (Wfq.Op_stats.empty_dequeue_pct stats);
            string_of_int (Wfq.Op_stats.total_enqueues stats + Wfq.Op_stats.total_dequeues stats);
          ])
    threads;
  Report.print ~title:"Table 2: execution-path breakdown of WF-0, 50%-enqueues benchmark" t;
  t

let latency ?(queues = Queues.figure2_set) ?(threads = 8) ?(ops_per_thread = 20_000) () =
  let spec =
    {
      (Workload.scaled Workload.Fifty_fifty ~total_ops:(threads * ops_per_thread)) with
      work_ns = None;
    }
  in
  let t =
    Report.create
      ~header:[ "queue"; "p50 ns"; "p90 ns"; "p99 ns"; "p99.9 ns"; "max ns"; "samples" ]
  in
  List.iter
    (fun (f : Queues.factory) ->
      let r = Telemetry.run (f.Queues.make ()) spec ~threads in
      let h = Obs.Op_latency.combined r.Telemetry.latency in
      let ns v = Printf.sprintf "%.0f" v in
      let p q = ns (Stats.Histogram.percentile h q) in
      Report.add_row t
        [
          f.Queues.name;
          p 50.0;
          p 90.0;
          p 99.0;
          p 99.9;
          ns (Stats.Histogram.max_recorded h);
          string_of_int (Stats.Histogram.count h);
        ])
    queues;
  Report.print
    ~title:
      (Printf.sprintf
         "Latency tails (50%%-enqueues, %d threads): the wait-freedom 'predictability' claim"
         threads)
    t;
  t

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)

type sweep = {
  parameter : string;
  doc : string;
  column : string;
  title : string;
  points : (string * Queues.factory) list;
}

let over label factory values = List.map (fun v -> (label v, factory v)) values

let ablations =
  [
    {
      parameter = "patience";
      doc = "PATIENCE sweep (fast/slow-path cutover)";
      column = "patience";
      title = "PATIENCE (fast/slow cutover)";
      points = over string_of_int (fun p -> Queues.wf ~patience:p ()) [ 0; 1; 2; 10; 64 ];
    };
    {
      parameter = "segment";
      doc = "Segment size sweep (the paper's N)";
      column = "segment cells";
      title = "segment size N";
      points =
        over (Printf.sprintf "2^%d")
          (fun s -> Queues.wf ~segment_shift:s ~name:(Printf.sprintf "wf-seg%d" s) ())
          [ 4; 6; 8; 10; 12; 14 ];
    };
    {
      parameter = "garbage";
      doc = "MAX_GARBAGE cleanup-threshold sweep";
      column = "max garbage";
      title = "cleanup amortization threshold MAX_GARBAGE";
      points =
        over string_of_int
          (fun g ->
            Queues.wf ~max_garbage:g ~segment_shift:6 ~name:(Printf.sprintf "wf-mg%d" g) ())
          [ 2; 4; 16; 64; 256 ];
    };
    {
      parameter = "reclaim";
      doc = "Reclamation on/off on the hot path";
      column = "reclamation";
      title = "memory reclamation on the hot path";
      points =
        over
          (fun on -> if on then "on" else "off")
          (fun on ->
            Queues.wf ~reclamation:on ~name:(if on then "wf-reclaim" else "wf-noreclaim") ())
          [ true; false ];
    };
  ]

let ablation ?(quick = false) ?(threads = 8) ?total_ops sweep =
  let spec = spec_for Workload.Pairs ~quick ~total_ops in
  let t = Report.create ~header:[ sweep.column; "Mops/s (pairs)" ] in
  List.iter
    (fun (label, factory) ->
      let report = Runner.measure ~quick factory spec ~threads in
      Report.add_row t [ label; Report.cell_ci report.Stats.Steady_state.interval ])
    sweep.points;
  Report.print ~title:(Printf.sprintf "Ablation: %s, %d threads" sweep.title threads) t;
  t
