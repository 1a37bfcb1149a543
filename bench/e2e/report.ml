(* A workload's result and its two renderings: one
   [workload metric value unit] line per metric, and the JSON object
   whose last-line form the benchmark contract fixes:
   {"correct", "attempted", "failed", "metrics"}. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = {
  workload : string;
  attempted : int;
  failed : int;
  e2e : metric list;  (** the gated set, measured with tracing off *)
  layer : metric list;  (** the per-layer set, from the traced pass *)
  info : metric list;  (** printed and saved, never gated *)
}

let correct r = r.failed = 0 && r.attempted > 0

(* Every metric of BENCHMARK.json, in its order; a workload must report
   all of them, so a missing one is a bug in the benchmark. *)
let e2e_names =
  [ "throughput_mops"; "latency_p90_us"; "slo_attained"; "setup_s"; "heap_mb" ]

let layer_names =
  [
    "wfq.enqueue.ns_p50"; "wfq.enqueue.ns_p99"; "wfq.dequeue.ns_p50"; "wfq.dequeue.ns_p99"; "wfq.busy_frac";
    "wfq.vs_faa"; "wfq.dequeue_empty.per_value"; "wfq.enqueue.slow_frac"; "wfq.dequeue.slow_frac";
    "wfq.minor_words_per_op"; "wfq.segments_per_kvalue"; "wfq.cleanup_runs"; "sched.busy_frac";
    "sched.await_suspend_frac"; "sched.steals_per_ktask"; "sched.injector.useful_frac"; "sched.task_errors";
    "runtime.minor_gcs_per_s"; "runtime.major_gcs"; "runtime.minor_words_per_value"; "trace.overhead_frac";
    "trace.dropped_spans";
  ]

let check_complete ~names ms =
  List.iter
    (fun n -> if not (List.exists (fun x -> x.name = n) ms) then failwith ("e2e benchmark: metric missing: " ^ n))
    names

let finite v = if Float.is_finite v then v else 0.

let print_lines oc r =
  let section title ms =
    if ms <> [] then begin
      Printf.fprintf oc "# %s %s\n" r.workload title;
      List.iter (fun x -> Printf.fprintf oc "%s %s %.6g %s\n" r.workload x.name (finite x.value) x.unit_) ms
    end
  in
  section "end-to-end (gated)" r.e2e;
  section "per-layer (traced)" r.layer;
  section "info (not gated)" r.info;
  flush oc

let json_metrics ms =
  String.concat ", "
    (List.map (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name (finite x.value) x.unit_) ms)

(* The contract's last line: the traced invocation reports the
   per-layer set, the untraced one the end-to-end set. *)
let json_line ~traced r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (correct r) r.attempted
    r.failed
    (json_metrics (if traced then r.layer else r.e2e))

(* The --json document: everything, info included. *)
let json_full r =
  Printf.sprintf
    "{\"workload\": %S, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"per_layer\": \
     {%s}, \"info\": {%s}}"
    r.workload (correct r) r.attempted r.failed (json_metrics r.e2e) (json_metrics r.layer) (json_metrics r.info)
