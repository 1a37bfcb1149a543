(* Tests for the observability subsystem: counter arithmetic, the
   probe gating discipline (disabled builds never touch the event
   tier; enabled builds record it), the queue-level snapshot, and the
   per-operation-class latency histograms.

   The event-tier tests drive the protocol deterministically through
   the Internal whitebox API — the same traces the slow-path tests
   use — so each counter is checked against a hand-computed value
   rather than "some nonnegative number". *)

module C = Obs.Counters
module Q = Wfq.Wfqueue (* probe disabled *)
module Qo = Wfq.Wfqueue_obs (* probe enabled *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)

let filled () =
  let c = C.create () in
  c.C.fast_enqueues <- 90;
  c.C.slow_enqueues <- 10;
  c.C.fast_dequeues <- 45;
  c.C.slow_dequeues <- 5;
  c.C.empty_dequeues <- 2;
  c.C.enq_cas_failures <- 7;
  c.C.deq_cas_failures <- 8;
  c.C.cells_skipped <- 3;
  c.C.help_enqueues <- 4;
  c.C.help_dequeues <- 6;
  c

let test_counter_totals () =
  let c = filled () in
  check Alcotest.int "total enq" 100 (C.total_enqueues c);
  check Alcotest.int "total deq" 50 (C.total_dequeues c);
  check Alcotest.int "total ops" 150 (C.total_ops c)

let test_counter_rates () =
  let c = filled () in
  check (Alcotest.float 1e-9) "slow enq rate" 0.1 (C.slow_enqueue_rate c);
  check (Alcotest.float 1e-9) "slow deq rate" 0.1 (C.slow_dequeue_rate c);
  check (Alcotest.float 1e-9) "slow rate" 0.1 (C.slow_rate c);
  check (Alcotest.float 1e-9) "pct = 100*rate" 10.0 (C.slow_enqueue_pct c);
  check (Alcotest.float 1e-9) "empty pct" 4.0 (C.empty_dequeue_pct c);
  check (Alcotest.float 1e-6) "per million" 100_000.0 (C.per_million 0.1)

let test_counter_rates_empty () =
  let c = C.create () in
  check (Alcotest.float 0.0) "no enq -> 0" 0.0 (C.slow_enqueue_rate c);
  check (Alcotest.float 0.0) "no deq -> 0" 0.0 (C.slow_dequeue_rate c);
  check (Alcotest.float 0.0) "no ops -> 0" 0.0 (C.slow_rate c)

let test_counter_add_absorb_reset () =
  let a = filled () and b = filled () in
  C.add ~into:a b;
  check Alcotest.int "add sums" 200 (C.total_enqueues a);
  check Alcotest.int "add sums events" 14 a.C.enq_cas_failures;
  check Alcotest.int "source untouched" 7 b.C.enq_cas_failures;
  C.absorb ~into:a b;
  check Alcotest.int "absorb sums" 300 (C.total_enqueues a);
  check Alcotest.int "absorb zeroes source" 0 (C.total_ops b);
  check Alcotest.int "absorb zeroes source events" 0 b.C.help_dequeues;
  C.reset a;
  check Alcotest.int "reset" 0 (C.total_ops a);
  check Alcotest.int "reset events" 0 a.C.cells_skipped

let test_counter_padded_copy_independent () =
  let c = C.create_padded () in
  c.C.fast_enqueues <- 5;
  let d = C.create_padded () in
  check Alcotest.int "fresh padded copy is zero" 0 d.C.fast_enqueues;
  check Alcotest.int "original keeps its count" 5 c.C.fast_enqueues

let test_counter_pp_smoke () =
  let s = Format.asprintf "%a" C.pp (filled ()) in
  let e = Format.asprintf "%a" C.pp_events (filled ()) in
  check Alcotest.bool "pp mentions slow" true (String.length s > 0);
  check Alcotest.bool "pp_events mentions helps" true (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Probe constants                                                    *)

let test_probe_flags () =
  check Alcotest.bool "Disabled" false Obs.Probe.Disabled.enabled;
  check Alcotest.bool "Enabled" true Obs.Probe.Enabled.enabled;
  check Alcotest.bool "Wfqueue is disabled" false Q.probe_enabled;
  check Alcotest.bool "Wfqueue_obs is enabled" true Qo.probe_enabled

(* ------------------------------------------------------------------ *)
(* Event tier: deterministic traces                                   *)

(* Poisoned first cell, patience 10: the enqueue burns one fast-path
   attempt on the poisoned cell (one CAS failure) and deposits on the
   second; the dequeue consumes the poisoned cell (one claim failure)
   and takes the value from the next. *)
let test_enabled_records_cas_failures () =
  let q = Qo.create ~patience:10 () in
  let h = Qo.register q in
  check Alcotest.bool "cell 0 poisoned" true Qo.Internal.(poison_cell (cell_of q h 0));
  Qo.enqueue q h 7;
  let s = Qo.handle_stats h in
  check Alcotest.int "fast enqueue" 1 s.C.fast_enqueues;
  check Alcotest.int "no slow enqueue" 0 s.C.slow_enqueues;
  check Alcotest.int "one enq CAS failure" 1 s.C.enq_cas_failures;
  check Alcotest.(option int) "value lands after the poison" (Some 7) (Qo.dequeue q h);
  check Alcotest.int "fast dequeue" 1 s.C.fast_dequeues;
  check Alcotest.int "one deq CAS failure" 1 s.C.deq_cas_failures

(* Same poisoned-cell trace at patience 0 on both builds: identical
   path-tier outcome (slow-path enqueue), but only the instrumented
   build records the event. *)
let test_disabled_build_keeps_event_tier_zero () =
  let q = Q.create ~patience:0 () in
  let h = Q.register q in
  check Alcotest.bool "cell 0 poisoned" true Q.Internal.(poison_cell (cell_of q h 0));
  Q.enqueue q h 7;
  let s = Q.handle_stats h in
  check Alcotest.int "slow enqueue recorded" 1 s.C.slow_enqueues;
  check Alcotest.int "event tier untouched (enq)" 0 s.C.enq_cas_failures;
  check Alcotest.(option int) "dequeue" (Some 7) (Q.dequeue q h);
  check Alcotest.int "event tier untouched (deq)" 0 s.C.deq_cas_failures;
  check Alcotest.int "event tier untouched (helping)" 0
    (s.C.help_enqueues + s.C.help_dequeues + s.C.cells_skipped)

let test_enabled_build_same_trace_records () =
  let q = Qo.create ~patience:0 () in
  let h = Qo.register q in
  check Alcotest.bool "cell 0 poisoned" true Qo.Internal.(poison_cell (cell_of q h 0));
  Qo.enqueue q h 7;
  let s = Qo.handle_stats h in
  check Alcotest.int "slow enqueue recorded" 1 s.C.slow_enqueues;
  check Alcotest.int "enq CAS failure recorded" 1 s.C.enq_cas_failures

(* A dequeuer that completes a peer's published enqueue request is a
   help-enqueue event — on the helper, not the requester. *)
let test_help_enqueue_counted () =
  let q = Qo.create ~patience:0 () in
  let h1 = Qo.register q in
  let h2 = Qo.register q in
  let i = Qo.Internal.faa_tail q in
  check Alcotest.int "stole ticket 0" 0 i;
  Qo.Internal.publish_enq_request h1 42 i;
  check Alcotest.(option int) "helper's dequeue returns the value" (Some 42) (Qo.dequeue q h2);
  check Alcotest.int "helper counted the help-enqueue" 1 (Qo.handle_stats h2).C.help_enqueues;
  check Alcotest.int "requester did not" 0 (Qo.handle_stats h1).C.help_enqueues

(* help_deq with pending work counts on the helper; self-help and
   no-work calls do not. *)
let test_help_dequeue_counted () =
  let q = Qo.create ~patience:0 () in
  let h1 = Qo.register q in
  let h2 = Qo.register q in
  Qo.enqueue q h1 42;
  Qo.Internal.publish_deq_request h1 0;
  (* no pending request on h2: nothing to help with *)
  Qo.Internal.help_deq q ~helper:h1 ~helpee:h2;
  check Alcotest.int "no-work help not counted" 0 (Qo.handle_stats h1).C.help_dequeues;
  (* self-help (deq_slow's own call) is not a helping event *)
  Qo.Internal.help_deq q ~helper:h1 ~helpee:h1;
  check Alcotest.int "self-help not counted" 0 (Qo.handle_stats h1).C.help_dequeues;
  (* re-publish: the self-help above completed the request *)
  Qo.Internal.publish_deq_request h2 1;
  Qo.enqueue q h1 43;
  Qo.Internal.help_deq q ~helper:h1 ~helpee:h2;
  check Alcotest.int "peer help counted once" 1 (Qo.handle_stats h1).C.help_dequeues;
  check Alcotest.bool "request completed" false (Qo.Internal.deq_request_pending h2)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)

let test_snapshot_counts_ops_and_config () =
  let q = Qo.create ~patience:3 () in
  let h = Qo.register q in
  for i = 1 to 10 do
    Qo.enqueue q h i
  done;
  for _ = 1 to 4 do
    ignore (Qo.dequeue q h)
  done;
  let s = Qo.snapshot q in
  check Alcotest.int "enqueues" 10 (C.total_enqueues s.Obs.Snapshot.ops);
  check Alcotest.int "dequeues" 4 (C.total_dequeues s.Obs.Snapshot.ops);
  check Alcotest.int "patience" 3 s.Obs.Snapshot.patience;
  check Alcotest.bool "probe flag" true s.Obs.Snapshot.probe_enabled;
  check Alcotest.int "one live handle" 1 s.Obs.Snapshot.handles.Obs.Snapshot.live;
  check Alcotest.int "ring size" 1 s.Obs.Snapshot.handles.Obs.Snapshot.ring;
  check Alcotest.bool "live segments > 0" true (s.Obs.Snapshot.segments.Obs.Snapshot.live > 0)

let test_snapshot_absorbs_retired_handles () =
  let q = Qo.create () in
  let h1 = Qo.register q in
  for i = 1 to 6 do
    Qo.enqueue q h1 i
  done;
  Qo.retire q h1;
  (* the recycled slot's counters must survive into the aggregate *)
  let h2 = Qo.register q in
  for i = 1 to 3 do
    Qo.enqueue q h2 i
  done;
  let s = Qo.snapshot q in
  check Alcotest.int "retired handle's ops counted once" 9
    (C.total_enqueues s.Obs.Snapshot.ops)

let test_snapshot_disabled_probe_flag () =
  let q = Q.create () in
  let s = Q.snapshot q in
  check Alcotest.bool "probe flag false" false s.Obs.Snapshot.probe_enabled

let test_cleanup_runs_counted () =
  (* 4-cell segments, cleanup threshold 2: churning 64 pairs through
     one handle crosses many segment boundaries, so cleanup must have
     actually reclaimed at least once. *)
  let q = Qo.create ~segment_shift:2 ~max_garbage:2 () in
  let h = Qo.register q in
  for i = 1 to 64 do
    Qo.enqueue q h i;
    ignore (Qo.dequeue q h)
  done;
  let s = Qo.snapshot q in
  check Alcotest.bool "cleanups > 0" true (Qo.cleanup_runs q > 0);
  check Alcotest.int "snapshot mirrors cleanup_runs" (Qo.cleanup_runs q)
    s.Obs.Snapshot.segments.Obs.Snapshot.cleanups;
  check Alcotest.bool "reclaimed segments > 0" true
    (s.Obs.Snapshot.segments.Obs.Snapshot.reclaimed > 0)

let test_snapshot_pp_smoke () =
  let q = Qo.create () in
  let h = Qo.register q in
  Qo.enqueue q h 1;
  let out = Format.asprintf "%a" Obs.Snapshot.pp (Qo.snapshot q) in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions patience" true (contains ~sub:"patience" out)

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                 *)

let test_op_latency_record_summarize () =
  let l = Obs.Op_latency.create () in
  for i = 1 to 1000 do
    Obs.Op_latency.record l Obs.Op_latency.Enqueue (float_of_int i)
  done;
  let s = Obs.Op_latency.summarize l Obs.Op_latency.Enqueue in
  check Alcotest.int "samples" 1000 s.Obs.Op_latency.samples;
  check Alcotest.bool "p50 <= p90 <= p99 <= max" true
    (s.Obs.Op_latency.p50_ns <= s.Obs.Op_latency.p90_ns
    && s.Obs.Op_latency.p90_ns <= s.Obs.Op_latency.p99_ns
    && s.Obs.Op_latency.p99_ns <= s.Obs.Op_latency.max_ns);
  check (Alcotest.float 0.0) "exact max" 1000.0 s.Obs.Op_latency.max_ns;
  (* p50 of 1..1000 is ~500 within log-linear quantization (<0.4%) *)
  check Alcotest.bool "p50 near 500" true
    (s.Obs.Op_latency.p50_ns >= 490.0 && s.Obs.Op_latency.p50_ns <= 510.0)

let test_op_latency_classes_independent () =
  let l = Obs.Op_latency.create () in
  Obs.Op_latency.record l Obs.Op_latency.Enqueue 10.0;
  Obs.Op_latency.record l Obs.Op_latency.Dequeue 20.0;
  check Alcotest.int "enqueue class" 1
    (Obs.Op_latency.summarize l Obs.Op_latency.Enqueue).Obs.Op_latency.samples;
  check Alcotest.int "dequeue class" 1
    (Obs.Op_latency.summarize l Obs.Op_latency.Dequeue).Obs.Op_latency.samples;
  check Alcotest.int "empty class untouched" 0
    (Obs.Op_latency.summarize l Obs.Op_latency.Dequeue_empty).Obs.Op_latency.samples

let test_op_latency_merge () =
  let a = Obs.Op_latency.create () and b = Obs.Op_latency.create () in
  Obs.Op_latency.record a Obs.Op_latency.Enqueue 10.0;
  Obs.Op_latency.record b Obs.Op_latency.Enqueue 1000.0;
  Obs.Op_latency.record b Obs.Op_latency.Dequeue_empty 5.0;
  Obs.Op_latency.merge_into ~into:a b;
  let s = Obs.Op_latency.summarize a Obs.Op_latency.Enqueue in
  check Alcotest.int "merged samples" 2 s.Obs.Op_latency.samples;
  check (Alcotest.float 0.0) "merged max" 1000.0 s.Obs.Op_latency.max_ns;
  check Alcotest.int "merged empty class" 1
    (Obs.Op_latency.summarize a Obs.Op_latency.Dequeue_empty).Obs.Op_latency.samples

let test_op_latency_empty_summary () =
  let l = Obs.Op_latency.create () in
  let s = Obs.Op_latency.summarize l Obs.Op_latency.Dequeue in
  check Alcotest.int "no samples" 0 s.Obs.Op_latency.samples;
  check (Alcotest.float 0.0) "zero p99" 0.0 s.Obs.Op_latency.p99_ns

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "totals" `Quick test_counter_totals;
          Alcotest.test_case "rates" `Quick test_counter_rates;
          Alcotest.test_case "rates on empty" `Quick test_counter_rates_empty;
          Alcotest.test_case "add/absorb/reset" `Quick test_counter_add_absorb_reset;
          Alcotest.test_case "padded copies" `Quick test_counter_padded_copy_independent;
          Alcotest.test_case "pp smoke" `Quick test_counter_pp_smoke;
        ] );
      ("probe", [ Alcotest.test_case "flags" `Quick test_probe_flags ]);
      ( "event tier",
        [
          Alcotest.test_case "cas failures recorded" `Quick test_enabled_records_cas_failures;
          Alcotest.test_case "disabled stays zero" `Quick
            test_disabled_build_keeps_event_tier_zero;
          Alcotest.test_case "enabled same trace records" `Quick
            test_enabled_build_same_trace_records;
          Alcotest.test_case "help-enqueue counted" `Quick test_help_enqueue_counted;
          Alcotest.test_case "help-dequeue counted" `Quick test_help_dequeue_counted;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "ops and config" `Quick test_snapshot_counts_ops_and_config;
          Alcotest.test_case "absorbs retired handles" `Quick
            test_snapshot_absorbs_retired_handles;
          Alcotest.test_case "disabled probe flag" `Quick test_snapshot_disabled_probe_flag;
          Alcotest.test_case "cleanup runs counted" `Quick test_cleanup_runs_counted;
          Alcotest.test_case "pp smoke" `Quick test_snapshot_pp_smoke;
        ] );
      ( "op latency",
        [
          Alcotest.test_case "record/summarize" `Quick test_op_latency_record_summarize;
          Alcotest.test_case "classes independent" `Quick test_op_latency_classes_independent;
          Alcotest.test_case "merge" `Quick test_op_latency_merge;
          Alcotest.test_case "empty summary" `Quick test_op_latency_empty_summary;
        ] );
    ]
