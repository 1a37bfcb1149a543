(* What every workload shares: the run parameters, the repeated set-up
   behind [setup_s], the e2e metrics derived from a latency recorder,
   and the per-layer metrics derived from the traced pass. *)

type ctx = {
  seed : int;
  seconds : float;  (** the measured period *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  traced : bool;
}

(* Warm-up before the measured period: 1 s at the full 10 s scale. *)
let warmup ctx = Float.min 1. (0.1 *. ctx.seconds)

(* What a workload pass returns.  [primary] is the metric whose traced
   vs untraced ratio is [trace.overhead_frac]. *)
type pass = {
  attempted : int;
  failed : int;
  e2e : Report.metric list;
  layer : Report.metric list;
  info : Report.metric list;
  primary : float;
  higher_is_better : bool;
}

(* Run [make] [ctx.setups] times, timing each; all but the last result
   go to [discard].  Set-up is repeated so that [setup_s] is a median,
   not one sample of domain-spawn and page-fault noise.  A full major
   collection follows, untimed, so the discarded set-ups' garbage does
   not count in [heap_mb]. *)
let timed_setups ctx ~make ~discard =
  let rec go k acc =
    let t0 = Util.now () in
    let x = make () in
    let dt = float_of_int (Util.now () - t0) *. 1e-9 in
    if k <= 1 then begin
      Gc.full_major ();
      (x, Util.median (dt :: acc))
    end
    else begin
      discard x;
      go (k - 1) (dt :: acc)
    end
  in
  go (max 1 ctx.setups) []

(* The major heap during the measured period, sampled by the parent
   domain while it waits (it has nothing else to do): [heap_mb] is the
   median sample.  The median of many samples is steady from run to run
   where the lifetime peak, set by when major cycles happen to end, is
   not; the peak is reported as info. *)
type heap = { mutable samples : float list }

let heap () = { samples = [] }
let sample_heap h = h.samples <- (float_of_int ((Gc.quick_stat ()).heap_words * 8) /. 1e6) :: h.samples

(* Sleep in 10 ms steps until [finished ()], sampling the heap whenever
   the clock is inside the measured period. *)
let wait_sampling h ~m_start ~m_end ~finished =
  while not (finished ()) do
    Unix.sleepf 0.01;
    let t = Util.now () in
    if t >= m_start && t < m_end then sample_heap h
  done

let memory_metrics h =
  if h.samples = [] then sample_heap h;
  ( [ Report.m "heap_mb" "MB" (Util.median h.samples) ],
    [ Report.m "peak_heap_mb" "MB" (float_of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1e6) ] )

(* Work per second as the median over the measured period's whole
   1-s windows, so a host stall in one window moves it little; runs
   shorter than two windows fall back to the whole-period rate. *)
let windowed_rate counts ~seconds =
  let whole = int_of_float seconds in
  if whole < 2 then float_of_int (Array.fold_left ( + ) 0 counts) /. seconds
  else Util.median (List.init whole (fun k -> float_of_int counts.(k)))

(* The latency metrics shared by every workload, from a recorder whose
   windows cover the measured period.  Every request due in the period
   was [expect]ed there, so lost and failed ones count as SLO misses.
   The median and p99 are info: on a shared 2-vCPU guest they moved by
   a fifth to a half between runs (the median on [stream] sits where the
   enqueue slow path meets the consumer's poll rate; every p99 follows
   host stalls), so they cannot be gated. *)
let latency_metrics ~(lat : Hist.Windows.t) ~scale =
  let us q = Hist.quantile lat.all q *. scale /. 1e3 in
  let wus q = Hist.Windows.windowed lat q *. scale /. 1e3 in
  let sum a = Array.fold_left ( + ) 0 a in
  ( [ Report.m "latency_p90_us" "us" (wus 0.9); Report.m "slo_attained" "fraction" (Hist.Windows.attained lat) ],
    [
      Report.m "latency_p50_us" "us" (us 0.5);
      Report.m "latency_p99_us" "us" (wus 0.99);
      Report.m "latency_samples" "count" (float_of_int lat.all.total);
      Report.m "latency_run_p99_us" "us" (us 0.99);
      Report.m "latency_run_p999_us" "us" (us 0.999);
      Report.m "latency_max_us" "us" (float_of_int lat.all.max *. scale /. 1e3);
      Report.m "latency_beyond_p99" "count" (float_of_int (Hist.beyond lat.all 0.99));
      Report.m "slo_run_attained" "fraction" (Util.ratio (sum lat.within) (sum lat.expected));
    ] )

(* A pass's end-to-end set, in BENCHMARK.json's order, and its info. *)
let e2e_of ~throughput ~latency:(lat_e2e, lat_info) ~setup_s ~heap =
  let mem_e2e, mem_info = memory_metrics heap in
  ( (Report.m "throughput_mops" "M/s" throughput :: lat_e2e) @ (Report.m "setup_s" "s" setup_s :: mem_e2e),
    lat_info @ mem_info )

(* The value of the e2e metric [name]. *)
let value name ms = (List.find (fun (x : Report.metric) -> x.name = name) ms).value

let gen_late_info (h : Hist.t) =
  [
    Report.m "gen.late_p99_us" "us" (Hist.quantile h 0.99 /. 1e3);
    Report.m "gen.late_max_us" "us" (float_of_int h.max /. 1e3);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                  *)

type gc = { minor : int; major : int; words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.minor_collections; major = s.major_collections; words = s.minor_words }

(* The raw numbers a traced pass collects beside [Trace]'s recorders. *)
type layer_raw = {
  wall_ns : int;
  workers : int;  (** busy domains: the two queue domains or the two scheduler workers *)
  values : int;  (** values delivered (queue workloads) or tasks run (task workloads) *)
  queue : Obs.Counters.t;  (** path counters of the queue under test *)
  enqueued : int;
  segments : int;  (** allocated + recycled *)
  cleanups : int;
  vs_faa : float;
  sched : (int * int * int) option;  (** steals, tasks spawned, task errors *)
  gc0 : gc;
  gc1 : gc;
}

let layer_metrics r =
  let open Trace in
  let q h p = Hist.quantile (merged h) p in
  let wall = float_of_int (max 1 r.wall_ns) in
  let deq_calls = sum (fun d -> d.deq_calls) and deq_empty = sum (fun d -> d.deq_empty) in
  let task_ns = scaled ~ns:(fun d -> d.task_ns) ~sampled:(fun d -> d.tasks_sampled) ~calls:(fun d -> d.tasks) in
  let steals, spawned, errors = Option.value r.sched ~default:(0, 0, 0) in
  let secs = wall /. 1e9 in
  let layer =
    [
      Report.m "wfq.enqueue.ns_p50" "ns" (q (fun d -> d.enq_ns) 0.5);
      Report.m "wfq.enqueue.ns_p99" "ns" (q (fun d -> d.enq_ns) 0.99);
      Report.m "wfq.dequeue.ns_p50" "ns" (q (fun d -> d.deq_ns) 0.5);
      Report.m "wfq.dequeue.ns_p99" "ns" (q (fun d -> d.deq_ns) 0.99);
      Report.m "wfq.busy_frac" "fraction" (wfq_time () /. (float_of_int r.workers *. wall));
      Report.m "wfq.vs_faa" "ratio" r.vs_faa;
      Report.m "wfq.dequeue_empty.per_value" "count" (Util.ratio deq_empty (deq_calls - deq_empty));
      Report.m "wfq.enqueue.slow_frac" "fraction" (Obs.Counters.slow_enqueue_rate r.queue);
      Report.m "wfq.dequeue.slow_frac" "fraction" (Obs.Counters.slow_dequeue_rate r.queue);
      Report.m "wfq.minor_words_per_op" "words" (Util.ratio (sum (fun d -> d.wfq_words)) (sum (fun d -> d.wfq_sampled)));
      Report.m "wfq.segments_per_kvalue" "count" (1000. *. Util.ratio r.segments r.enqueued);
      Report.m "wfq.cleanup_runs" "count" (float_of_int r.cleanups);
      Report.m "sched.busy_frac" "fraction" (float_of_int task_ns /. (float_of_int r.workers *. wall));
      Report.m "sched.await_suspend_frac" "fraction"
        (Util.ratio (sum (fun d -> d.awaits_suspended)) (sum (fun d -> d.awaits)));
      Report.m "sched.steals_per_ktask" "count" (1000. *. Util.ratio steals spawned);
      Report.m "sched.injector.useful_frac" "fraction"
        (if r.sched = None then 0. else Util.ratio (deq_calls - deq_empty) deq_calls);
      Report.m "sched.task_errors" "count" (float_of_int errors);
      Report.m "runtime.minor_gcs_per_s" "1/s" (float_of_int (r.gc1.minor - r.gc0.minor) /. secs);
      Report.m "runtime.major_gcs" "count" (float_of_int (r.gc1.major - r.gc0.major));
      Report.m "runtime.minor_words_per_value" "words"
        (if r.values = 0 then 0. else (r.gc1.words -. r.gc0.words) /. float_of_int r.values);
      Report.m "trace.dropped_spans" "count" (float_of_int (sum (fun d -> d.dropped)));
    ]
  in
  (* Timings of calls some workloads never make: reported where they
     were made, not part of the per-layer set every workload fills. *)
  let timing name unit_ h scale ps =
    let m = merged h in
    if m.total = 0 then []
    else List.map (fun (suffix, p) -> Report.m (name ^ suffix) unit_ (Hist.quantile m p /. scale)) ps
  in
  let info =
    timing "wfq.dequeue_empty.ns_p50" "ns" (fun d -> d.deq_empty_ns) 1. [ ("", 0.5) ]
    @ timing "sched.async_ext.ns_" "ns" (fun d -> d.async_ext_ns) 1. [ ("p50", 0.5); ("p99", 0.99) ]
    @ timing "sched.spawn.ns_p50" "ns" (fun d -> d.spawn_ns) 1. [ ("", 0.5) ]
    @ timing "sched.ready_wait_us." "us" (fun d -> d.ready_wait_ns) 1e3 [ ("p50", 0.5); ("p99", 0.99) ]
    @ timing "sched.injector.poll_gap_us." "us" (fun d -> d.poll_gap_ns) 1e3 [ ("p50", 0.5); ("p99", 0.99) ]
  in
  (layer, info)

let span_info ~dir ~workload =
  List.concat_map
    (fun (name, count, dur, self) ->
      [
        Report.m ("span." ^ name ^ ".count") "count" (float_of_int count);
        Report.m ("span." ^ name ^ ".ns_mean") "ns" dur;
        Report.m ("span." ^ name ^ ".self_ns_mean") "ns" self;
      ])
    (Trace.write_spans ~dir ~workload)
