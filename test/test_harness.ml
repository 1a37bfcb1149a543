(* Tests for the benchmark harness: workload math and determinism,
   the runner, the queue registry, report rendering, platform
   detection, and quick-mode smoke runs of the experiment drivers. *)

module WL = Harness.Workload

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)

let test_kind_parsing () =
  check Alcotest.bool "pairs" true (WL.kind_of_string "pairs" = Ok WL.Pairs);
  check Alcotest.bool "half" true (WL.kind_of_string "half" = Ok WL.Fifty_fifty);
  check Alcotest.bool "fifty" true (WL.kind_of_string "fifty" = Ok WL.Fifty_fifty);
  check Alcotest.bool "garbage rejected" true (Result.is_error (WL.kind_of_string "nope"));
  check Alcotest.string "roundtrip pairs" "pairs" (WL.kind_to_string WL.Pairs);
  check Alcotest.string "roundtrip half" "half" (WL.kind_to_string WL.Fifty_fifty)

let test_defaults_match_paper () =
  let d = WL.default WL.Pairs in
  check Alcotest.int "10^7 operations" 10_000_000 d.WL.total_ops;
  check Alcotest.bool "50-100ns think time" true (d.WL.work_ns = Some (50, 100))

let test_ops_per_thread () =
  let spec = WL.scaled WL.Pairs ~total_ops:1_000 in
  check Alcotest.int "even split" 250 (WL.ops_per_thread spec ~threads:4);
  (* pairs are whole: 1000/3 = 333 -> 332 (166 pairs) *)
  check Alcotest.int "whole pairs" 332 (WL.ops_per_thread spec ~threads:3);
  let spec = WL.scaled WL.Fifty_fifty ~total_ops:1_000 in
  check Alcotest.int "half split" 333 (WL.ops_per_thread spec ~threads:3)

let counting_ops () =
  let enq = ref 0 and deq = ref 0 in
  ( Harness.Queues.make_ops
      ~enqueue:(fun _ -> incr enq)
      ~dequeue:(fun () ->
        incr deq;
        None)
      ~release:ignore (),
    enq,
    deq )

let test_thread_body_pairs () =
  let spec = { (WL.scaled WL.Pairs ~total_ops:400) with WL.work_ns = None } in
  let ops, enq, deq = counting_ops () in
  let performed = WL.thread_body spec ~thread:0 ops ~threads:2 () in
  check Alcotest.int "performed = share" 200 performed;
  check Alcotest.int "half enqueues" 100 !enq;
  check Alcotest.int "half dequeues" 100 !deq

let test_thread_body_half_deterministic () =
  let spec = { (WL.scaled WL.Fifty_fifty ~total_ops:1_000) with WL.work_ns = None } in
  let run () =
    let ops, enq, _ = counting_ops () in
    let performed = WL.thread_body spec ~thread:3 ops ~threads:2 () in
    (performed, !enq)
  in
  let p1, e1 = run () in
  let p2, e2 = run () in
  check Alcotest.int "same op count" p1 p2;
  check Alcotest.int "same coin flips" e1 e2;
  check Alcotest.int "share" 500 p1;
  (* roughly balanced enqueues *)
  check Alcotest.bool "roughly half enqueues" true (e1 > 200 && e1 < 300)

let test_thread_body_distinct_per_thread () =
  let spec = { (WL.scaled WL.Fifty_fifty ~total_ops:1_000) with WL.work_ns = None } in
  let enqs t =
    let ops, enq, _ = counting_ops () in
    ignore (WL.thread_body spec ~thread:t ops ~threads:2 ());
    !enq
  in
  check Alcotest.bool "different threads different streams" true (enqs 0 <> enqs 1)

(* ------------------------------------------------------------------ *)
(* Queues registry                                                    *)

let test_registry_names_unique () =
  let names = Harness.Queues.names () in
  let sorted = List.sort_uniq compare names in
  check Alcotest.int "no duplicate names" (List.length names) (List.length sorted);
  check Alcotest.bool "has wf-10" true (List.mem "wf-10" names);
  check Alcotest.bool "has wf-0" true (List.mem "wf-0" names);
  check Alcotest.bool "has lcrq" true (List.mem "lcrq" names);
  check Alcotest.bool "has faa" true (List.mem "faa" names)

let test_registry_find () =
  check Alcotest.bool "find wf-10" true (Harness.Queues.find "wf-10" <> None);
  check Alcotest.bool "find nothing" true (Harness.Queues.find "bogus" = None)

let test_each_factory_is_fifo () =
  let n = 100 in
  List.iter
    (fun (f : Harness.Queues.factory) ->
      if f.Harness.Queues.is_real_queue then begin
        let name = f.Harness.Queues.name in
        let inst = f.Harness.Queues.make () in
        let ops = inst.Harness.Queues.register () in
        for v = 1 to n do
          ops.Harness.Queues.enqueue v
        done;
        for v = 1 to n do
          check Alcotest.(option int) (Printf.sprintf "%s fifo %d" name v) (Some v)
            (ops.Harness.Queues.dequeue ())
        done;
        check Alcotest.(option int) (name ^ " empty") None (ops.Harness.Queues.dequeue ());
        match inst.Harness.Queues.snapshot () with
        | Some snap ->
          check Alcotest.bool (name ^ " snapshot counts the enqueues") true
            (Obs.Counters.total_enqueues snap.Obs.Snapshot.ops >= n)
        | None -> ()
      end)
    Harness.Queues.all

(* Every WF build in the registry comes from the one WF factory, so
   each reports its path counters and resets them. *)
let test_wf_factory_stats () =
  let wf_builds =
    List.filter
      (fun (f : Harness.Queues.factory) -> String.starts_with ~prefix:"wf-" f.Harness.Queues.name)
      Harness.Queues.all
  in
  check
    Alcotest.(list string)
    "the WF builds"
    [ "wf-10"; "wf-0"; "wf-10-obs"; "wf-bounded"; "wf-llsc" ]
    (List.map (fun (f : Harness.Queues.factory) -> f.Harness.Queues.name) wf_builds);
  List.iter
    (fun (f : Harness.Queues.factory) ->
      let name = f.Harness.Queues.name in
      let inst = f.Harness.Queues.make () in
      let ops = inst.Harness.Queues.register () in
      ops.Harness.Queues.enqueue 1;
      ignore (ops.Harness.Queues.dequeue ());
      (match inst.Harness.Queues.op_stats () with
      | Some s ->
        check Alcotest.int (name ^ " enqueues tracked") 1 (Wfq.Op_stats.total_enqueues s);
        check Alcotest.int (name ^ " dequeues tracked") 1 (Wfq.Op_stats.total_dequeues s)
      | None -> Alcotest.failf "%s must expose stats" name);
      (match inst.Harness.Queues.snapshot () with
      | Some snap ->
        check Alcotest.int (name ^ " snapshot ops") 2 (Obs.Counters.total_ops snap.Obs.Snapshot.ops)
      | None -> Alcotest.failf "%s must expose a snapshot" name);
      inst.Harness.Queues.reset_op_stats ();
      match inst.Harness.Queues.op_stats () with
      | Some s -> check Alcotest.int (name ^ " reset") 0 (Wfq.Op_stats.total_enqueues s)
      | None -> Alcotest.failf "%s stats gone after reset" name)
    wf_builds

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)

let test_run_once_counts_ops () =
  let f = Harness.Queues.wf ~patience:10 ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = { (WL.scaled WL.Pairs ~total_ops:8_000) with WL.work_ns = None } in
  let m = Harness.Runner.run_once inst spec ~threads:2 in
  check Alcotest.int "ops performed" 8_000 m.Harness.Runner.ops;
  check Alcotest.bool "positive time" true (m.Harness.Runner.elapsed_s > 0.0);
  check Alcotest.bool "positive throughput" true (m.Harness.Runner.mops > 0.0);
  check Alcotest.int "threads recorded" 2 m.Harness.Runner.threads

let test_run_once_rejects_bad_threads () =
  let f = Harness.Queues.wf () in
  let inst = f.Harness.Queues.make () in
  let spec = WL.scaled WL.Pairs ~total_ops:100 in
  (try
     ignore (Harness.Runner.run_once inst spec ~threads:0);
     Alcotest.fail "accepted 0 threads"
   with Invalid_argument _ -> ());
  try
    ignore (Harness.Runner.run_once inst spec ~threads:10_000);
    Alcotest.fail "accepted 10000 threads"
  with Invalid_argument _ -> ()

(* The think time excluded from the wall clock is the injected sum
   over the domains that spin at once: one at 1 thread, and as many as
   the host has cores, up to the thread count, beyond. *)
let test_injected_work_accounted () =
  let f = Harness.Queues.wf ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = WL.scaled WL.Pairs ~total_ops:2_000 in
  List.iter
    (fun threads ->
      let m = Harness.Runner.run_once inst spec ~threads in
      let what = Printf.sprintf "%d threads: " threads in
      (* 2000 ops at mean 75ns = 150us expected think time *)
      check (Alcotest.float 1.0) (what ^ "expected injected ns") 150_000.0
        m.Harness.Runner.injected_ns;
      check Alcotest.bool (what ^ "excl-work >= raw") true
        (m.Harness.Runner.mops_excl_work >= m.Harness.Runner.mops);
      let spinners = float_of_int (min threads (Domain.recommended_domain_count ())) in
      let elapsed = m.Harness.Runner.elapsed_s in
      let think_wall = m.Harness.Runner.injected_ns /. 1e9 /. spinners in
      let op_time = Float.max (elapsed -. think_wall) (elapsed *. 0.1) in
      check (Alcotest.float 1e-6) (what ^ "think time divided by the parallel spinners")
        (float_of_int m.Harness.Runner.ops /. op_time /. 1e6)
        m.Harness.Runner.mops_excl_work)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Report                                                             *)

let test_report_csv () =
  let t = Harness.Report.create ~header:[ "a"; "b" ] in
  Harness.Report.add_row t [ "1"; "x,y" ];
  Harness.Report.add_row t [ "2"; "has \"quote\"" ];
  let csv = Harness.Report.to_csv t in
  check Alcotest.string "csv escaping" "a,b\n1,\"x,y\"\n2,\"has \"\"quote\"\"\"\n" csv

let test_report_cells () =
  check Alcotest.string "float" "1.500" (Harness.Report.cell_float 1.5);
  let iv = Stats.Student_t.confidence_interval [| 10.0; 10.2; 9.8; 10.0 |] in
  let s = Harness.Report.cell_ci iv in
  check Alcotest.bool "ci cell has plusminus" true (String.length s > 5)

(* ------------------------------------------------------------------ *)
(* Platform                                                           *)

let test_platform_rows () =
  check Alcotest.int "four paper platforms" 4 (List.length Harness.Platform.paper_rows);
  let host = Harness.Platform.host () in
  check Alcotest.bool "host threads >= 1" true (host.Harness.Platform.hw_threads >= 1);
  check Alcotest.bool "host has a name" true (String.length host.Harness.Platform.processor > 0)

(* ------------------------------------------------------------------ *)
(* Plot                                                               *)

let test_plot_render_shape () =
  let out =
    Harness.Plot.render ~width:20 ~height:5 ~x_labels:[ "1"; "2"; "4" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 1.0; 2.0; 3.0 |] } ]
  in
  let lines = String.split_on_char '\n' out in
  (* header + 5 canvas rows + axis + ticks + trailing *)
  check Alcotest.bool "enough lines" true (List.length lines >= 8);
  check Alcotest.bool "has glyph" true (String.contains out '*');
  check Alcotest.bool "max in header" true
    (String.length (List.hd lines) > 0 && String.contains (List.hd lines) '3')

let test_plot_rejects_mismatch () =
  (try
     ignore
       (Harness.Plot.render ~x_labels:[ "1"; "2" ] ~y_label:"y"
          [ { Harness.Plot.label = "a"; points = [| 1.0 |] } ]);
     Alcotest.fail "accepted mismatched series"
   with Invalid_argument _ -> ());
  try
    ignore (Harness.Plot.render ~x_labels:[] ~y_label:"y" []);
    Alcotest.fail "accepted empty x axis"
  with Invalid_argument _ -> ()

let test_plot_single_point () =
  let out =
    Harness.Plot.render ~width:10 ~height:4 ~x_labels:[ "1" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 5.0 |] } ]
  in
  check Alcotest.bool "renders" true (String.contains out '*')

let test_plot_flat_zero_series () =
  (* all-zero data must not divide by zero *)
  let out =
    Harness.Plot.render ~width:10 ~height:4 ~x_labels:[ "1"; "2" ] ~y_label:"y"
      [ { Harness.Plot.label = "a"; points = [| 0.0; 0.0 |] } ]
  in
  check Alcotest.bool "renders" true (String.length out > 0)

(* ------------------------------------------------------------------ *)
(* Latency harness                                                    *)

(* The latency table's distribution: a telemetry run with every
   operation class merged. *)
let test_latency_measure () =
  let inst = (Harness.Queues.wf ~segment_shift:6 ()).Harness.Queues.make () in
  let spec = { (WL.scaled WL.Fifty_fifty ~total_ops:4_000) with WL.work_ns = None } in
  let r = Harness.Telemetry.run inst spec ~threads:2 in
  let h = Obs.Op_latency.combined r.Harness.Telemetry.latency in
  let p = Stats.Histogram.percentile h in
  check Alcotest.int "all samples" 4_000 (Stats.Histogram.count h);
  check Alcotest.bool "percentiles ordered" true
    (p 50.0 <= p 90.0
    && p 90.0 <= p 99.0
    && p 99.0 <= p 99.9
    && p 99.9 <= Stats.Histogram.max_recorded h);
  check Alcotest.bool "positive" true (p 50.0 >= 0.0)

let test_latency_experiment_shape () =
  let queues = [ Harness.Queues.wf ~segment_shift:6 () ] in
  let t = Harness.Experiments.latency ~queues ~threads:2 ~ops_per_thread:1_000 () in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 1 row" 2 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Experiments (quick smoke)                                          *)

let test_table1_shape () =
  let t = Harness.Experiments.table1 () in
  (* header + separator are not rows; 4 paper rows + 1 host row *)
  let csv = Harness.Report.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "1 header + 5 rows" 6 (List.length lines)

let test_table2_shape () =
  let t = Harness.Experiments.table2 ~quick:true ~threads:[ 2; 3 ] ~total_ops:20_000 () in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 2 rows" 3 (List.length lines)

let test_figure2_tiny () =
  let queues = [ Harness.Queues.wf ~patience:10 ~segment_shift:6 () ] in
  let t =
    Harness.Experiments.figure2 ~quick:true ~threads:[ 1; 2 ] ~queues ~total_ops:10_000
      Harness.Workload.Pairs
  in
  let lines = String.split_on_char '\n' (String.trim (Harness.Report.to_csv t)) in
  check Alcotest.int "1 header + 1 queue row" 2 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Json emitter                                                       *)

module J = Harness.Json

let test_json_basics () =
  let doc =
    J.Obj
      [
        ("int", J.Int (-17));
        ("string", J.String "with \"quotes\", back\\slash,\n\ttabs and \x01 control");
        ("null", J.Null);
        ("bools", J.List [ J.Bool true; J.Bool false ]);
        ("empty_list", J.List []);
        ("empty_obj", J.Obj []);
        ("nested", J.Obj [ ("xs", J.List [ J.Int 1; J.Obj [ ("y", J.Float 0.5) ] ]) ]);
      ]
  in
  check Alcotest.string "pretty-printed document"
    {|{
  "int": -17,
  "string": "with \"quotes\", back\\slash,\n\ttabs and \u0001 control",
  "null": null,
  "bools": [
    true,
    false
  ],
  "empty_list": [],
  "empty_obj": {},
  "nested": {
    "xs": [
      1,
      {
        "y": 0.5
      }
    ]
  }
}
|}
    (J.to_string doc)

let test_json_whole_floats_stay_floats () =
  (* a reader must not take 3.0 for the int 3 *)
  check Alcotest.string "3.0" "3.0\n" (J.to_string (J.Float 3.0));
  check Alcotest.string "-0.0" "-0.0\n" (J.to_string (J.Float (-0.0)));
  check Alcotest.string "1e300 keeps its exponent" "1e+300\n" (J.to_string (J.Float 1e300))

let test_json_int_stays_int () =
  check Alcotest.string "3" "3\n" (J.to_string (J.Int 3));
  check Alcotest.string "min_int" (string_of_int min_int ^ "\n") (J.to_string (J.Int min_int))

let test_json_float_precision () =
  (* shortest decimal form that reads back as the same float *)
  check Alcotest.string "0.1 stays short" "0.1\n" (J.to_string (J.Float 0.1));
  List.iter
    (fun f ->
      let s = String.trim (J.to_string (J.Float f)) in
      check Alcotest.bool (Printf.sprintf "%s reads back" s) true (float_of_string s = f))
    [ 0.1; 1.0 /. 3.0; Float.pi; 1e300; 5e-324; -0.0; 123456.789012345; 1.5e-9 ]

let test_json_nonfinite_becomes_null () =
  List.iter
    (fun f -> check Alcotest.string (string_of_float f) "null\n" (J.to_string (J.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* Telemetry                                                          *)

let test_telemetry_run_counts_and_latency () =
  let f = Harness.Queues.wf_obs ~patience:10 ~segment_shift:6 () in
  let inst = f.Harness.Queues.make () in
  let spec = { (WL.scaled WL.Pairs ~total_ops:4_000) with WL.work_ns = None } in
  let r = Harness.Telemetry.run inst spec ~threads:2 in
  check Alcotest.int "ops" 4_000 r.Harness.Telemetry.ops;
  (match r.Harness.Telemetry.snapshot with
  | None -> Alcotest.fail "wf_obs must produce a snapshot"
  | Some snap ->
    check Alcotest.int "snapshot covers every op" 4_000
      (Obs.Counters.total_ops snap.Obs.Snapshot.ops);
    check Alcotest.bool "probe on" true snap.Obs.Snapshot.probe_enabled);
  let total_samples =
    List.fold_left
      (fun acc cls ->
        acc
        + (Obs.Op_latency.summarize r.Harness.Telemetry.latency cls).Obs.Op_latency.samples)
      0 Obs.Op_latency.classes
  in
  check Alcotest.int "every op timed" 4_000 total_samples

let test_telemetry_stats_table_shape () =
  let rows =
    Harness.Telemetry.stats_table ~patiences:[ 0; 10 ] ~total_ops:2_000 ~threads:2 ()
  in
  check Alcotest.int "one row per patience" 2 (List.length rows);
  List.iter
    (fun (r : Harness.Telemetry.row) ->
      check Alcotest.int "ops performed" 2_000 r.Harness.Telemetry.result.Harness.Telemetry.ops;
      match r.Harness.Telemetry.result.Harness.Telemetry.snapshot with
      | None -> Alcotest.fail "instrumented rows carry snapshots"
      | Some snap ->
        check Alcotest.int "row patience matches queue" r.Harness.Telemetry.patience
          snap.Obs.Snapshot.patience)
    rows;
  (* the table and JSON renderings must not raise *)
  ignore (Format.asprintf "%a" Harness.Telemetry.pp_table rows);
  ignore (J.to_string (Harness.Telemetry.table_to_json rows))

(* A synthetic row: an idle instrumented queue's snapshot with its
   path counters replaced, so the verdict sees exactly [slow] slow
   operations out of [fast + slow]. *)
let synthetic_row ~patience ~fast ~slow =
  let ops = Obs.Counters.create () in
  ops.Obs.Counters.fast_enqueues <- fast;
  ops.Obs.Counters.slow_enqueues <- slow;
  let snap = Wfq.Wfqueue_obs.snapshot (Wfq.Wfqueue_obs.create ~patience ()) in
  {
    Harness.Telemetry.patience;
    result =
      {
        Harness.Telemetry.threads = 1;
        ops = fast + slow;
        elapsed_s = 1.0;
        mops = 0.0;
        snapshot = Some { snap with Obs.Snapshot.ops };
        latency = Obs.Op_latency.create ();
        alloc = Obs.Alloc_probe.create ();
      };
  }

let test_telemetry_slow_path_ceiling () =
  let module T = Harness.Telemetry in
  let verdict rows =
    let v = T.slow_path_verdict rows in
    ignore (Format.asprintf "%a" T.pp_verdict v);
    v
  in
  let p10 slow = synthetic_row ~patience:10 ~fast:(1_000_000 - slow) ~slow in
  check Alcotest.bool "the default sweep is checked" true
    (List.mem T.ceiling_patience T.default_patiences);
  check Alcotest.bool "5% slow at patience 10 fails" true
    (match verdict [ p10 50_000 ] with T.Exceeded r -> r = 0.05 | _ -> false);
  check Alcotest.bool "just above the limit fails" true
    (match verdict [ p10 1_001 ] with T.Exceeded _ -> true | _ -> false);
  check Alcotest.bool "exactly the limit passes" true
    (match verdict [ p10 1_000 ] with T.Within r -> r = T.max_slow_rate | _ -> false);
  (* only the patience-10 row is judged: patience 0 is slow by design *)
  check Alcotest.bool "a slow patience-0 row does not count" true
    (match verdict [ synthetic_row ~patience:0 ~fast:1 ~slow:1; p10 0 ] with
    | T.Within 0.0 -> true
    | _ -> false);
  check Alcotest.bool "no patience-10 row" true
    (verdict [ synthetic_row ~patience:0 ~fast:1 ~slow:1 ] = T.Unmeasured);
  let r = p10 500_000 in
  check Alcotest.bool "a patience-10 row without telemetry" true
    (verdict [ { r with T.result = { r.T.result with T.snapshot = None } } ] = T.Unmeasured)

let test_wf_obs_in_registry () =
  check Alcotest.bool "wf-10-obs registered" true
    (Harness.Queues.find "wf-10-obs" <> None)

(* ------------------------------------------------------------------ *)
(* Storm audit                                                        *)

(* The conservation rule on a hand-made ledger: 2 domains of 4 values
   each, both committed 3; domain 0 was killed, domain 1 completed.
   Kills are read from the injector's counters, so a missing value is
   excused only after a real kill at a dequeue-side point. *)
let test_storm_audit_rule () =
  let module S = Harness.Storm in
  let committed = [| 3; 3 |] in
  let outcomes = [| S.Killed Inject.Enq_fast_after_faa; S.Completed |] in
  let violations values =
    List.length (S.audit ~ops:4 ~committed ~outcomes values).S.violations
  in
  let all = [ 0; 1; 2; 4; 5; 6 ] in
  let kill_at p =
    let plan = Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ p ] ~seed:1L () in
    S.with_controller ~park:ignore ~victim:(fun () -> true) plan (fun () ->
        match Inject.Enabled.hit p with
        | () -> Alcotest.fail "the armed point did not kill"
        | exception Inject.Killed _ -> ())
  in
  Inject.reset_stats ();
  check Alcotest.int "exact conservation passes" 0 (violations all);
  check Alcotest.int "a killed domain's in-flight value may appear" 0 (violations (3 :: all));
  check Alcotest.int "a survivor's uncommitted value is alien" 1 (violations (7 :: all));
  check Alcotest.int "a value with no owner is alien" 1 (violations (8 :: -1 :: all));
  check Alcotest.int "a duplicate is caught" 1 (violations (5 :: all));
  check Alcotest.int "a missing value is caught" 1 (violations (List.tl all));
  kill_at Inject.Enq_fast_after_faa;
  check Alcotest.int "an enqueue-side kill excuses nothing" 1 (violations (List.tl all));
  kill_at Inject.Deq_fast_after_faa;
  check Alcotest.int "a dequeue-side kill excuses one value" 0 (violations (List.tl all));
  check Alcotest.int "but not two" 1 (violations (List.tl (List.tl all)))

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "kind parsing" `Quick test_kind_parsing;
          Alcotest.test_case "paper defaults" `Quick test_defaults_match_paper;
          Alcotest.test_case "ops per thread" `Quick test_ops_per_thread;
          Alcotest.test_case "pairs body" `Quick test_thread_body_pairs;
          Alcotest.test_case "half deterministic" `Quick test_thread_body_half_deterministic;
          Alcotest.test_case "distinct per thread" `Quick test_thread_body_distinct_per_thread;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "every factory fifo" `Quick test_each_factory_is_fifo;
          Alcotest.test_case "wf stats" `Quick test_wf_factory_stats;
        ] );
      ( "runner",
        [
          Alcotest.test_case "counts ops" `Quick test_run_once_counts_ops;
          Alcotest.test_case "rejects bad threads" `Quick test_run_once_rejects_bad_threads;
          Alcotest.test_case "injected work" `Quick test_injected_work_accounted;
        ] );
      ( "report",
        [
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "cells" `Quick test_report_cells;
        ] );
      ("platform", [ Alcotest.test_case "rows" `Quick test_platform_rows ]);
      ("storm", [ Alcotest.test_case "audit rule" `Quick test_storm_audit_rule ]);
      ( "plot",
        [
          Alcotest.test_case "render shape" `Quick test_plot_render_shape;
          Alcotest.test_case "rejects mismatch" `Quick test_plot_rejects_mismatch;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
          Alcotest.test_case "flat zero" `Quick test_plot_flat_zero_series;
        ] );
      ( "latency",
        [
          Alcotest.test_case "measure" `Quick test_latency_measure;
          Alcotest.test_case "experiment shape" `Quick test_latency_experiment_shape;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Quick test_table1_shape;
          Alcotest.test_case "table2" `Quick test_table2_shape;
          Alcotest.test_case "figure2 tiny" `Quick test_figure2_tiny;
        ] );
      ( "json",
        [
          Alcotest.test_case "document and string escapes" `Quick test_json_basics;
          Alcotest.test_case "whole floats stay floats" `Quick
            test_json_whole_floats_stay_floats;
          Alcotest.test_case "ints stay ints" `Quick test_json_int_stays_int;
          Alcotest.test_case "float precision" `Quick test_json_float_precision;
          Alcotest.test_case "nonfinite to null" `Quick test_json_nonfinite_becomes_null;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "run counts and latency" `Quick
            test_telemetry_run_counts_and_latency;
          Alcotest.test_case "stats table shape" `Quick test_telemetry_stats_table_shape;
          Alcotest.test_case "slow-path ceiling" `Quick test_telemetry_slow_path_ceiling;
          Alcotest.test_case "wf-obs registered" `Quick test_wf_obs_in_registry;
        ] );
    ]
