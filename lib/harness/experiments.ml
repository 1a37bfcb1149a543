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

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)

let one_number ~quick factory spec ~threads =
  let report = Runner.measure ~quick factory spec ~threads in
  Report.cell_ci report.Stats.Steady_state.interval

let ablation_patience ?(quick = false) ?(threads = 8) ?(values = [ 0; 1; 2; 10; 64 ]) ?total_ops
    () =
  let spec = spec_for Workload.Pairs ~quick ~total_ops in
  let t = Report.create ~header:[ "patience"; "Mops/s (pairs)" ] in
  List.iter
    (fun p ->
      Report.add_row t [ string_of_int p; one_number ~quick (Queues.wf ~patience:p ()) spec ~threads ])
    values;
  Report.print ~title:(Printf.sprintf "Ablation: PATIENCE (fast/slow cutover), %d threads" threads) t;
  t

let ablation_segment_size ?(quick = false) ?(threads = 8) ?(shifts = [ 4; 6; 8; 10; 12; 14 ])
    ?total_ops () =
  let spec = spec_for Workload.Pairs ~quick ~total_ops in
  let t = Report.create ~header:[ "segment cells"; "Mops/s (pairs)" ] in
  List.iter
    (fun s ->
      Report.add_row t
        [
          Printf.sprintf "2^%d" s;
          one_number ~quick (Queues.wf ~segment_shift:s ~name:(Printf.sprintf "wf-seg%d" s) ()) spec
            ~threads;
        ])
    shifts;
  Report.print ~title:(Printf.sprintf "Ablation: segment size N, %d threads" threads) t;
  t

let ablation_max_garbage ?(quick = false) ?(threads = 8) ?(values = [ 2; 4; 16; 64; 256 ])
    ?total_ops () =
  let spec = spec_for Workload.Pairs ~quick ~total_ops in
  let t = Report.create ~header:[ "max garbage"; "Mops/s (pairs)" ] in
  List.iter
    (fun g ->
      Report.add_row t
        [
          string_of_int g;
          one_number ~quick
            (Queues.wf ~max_garbage:g ~segment_shift:6 ~name:(Printf.sprintf "wf-mg%d" g) ())
            spec ~threads;
        ])
    values;
  Report.print
    ~title:
      (Printf.sprintf "Ablation: cleanup amortization threshold MAX_GARBAGE, %d threads" threads)
    t;
  t

let ablation_reclamation ?(quick = false) ?(threads = 8) ?total_ops () =
  let spec = spec_for Workload.Pairs ~quick ~total_ops in
  let t = Report.create ~header:[ "reclamation"; "Mops/s (pairs)" ] in
  List.iter
    (fun on ->
      Report.add_row t
        [
          (if on then "on" else "off");
          one_number ~quick
            (Queues.wf ~reclamation:on ~name:(if on then "wf-reclaim" else "wf-noreclaim") ())
            spec ~threads;
        ])
    [ true; false ];
  Report.print ~title:(Printf.sprintf "Ablation: memory reclamation on the hot path, %d threads" threads) t;
  t
