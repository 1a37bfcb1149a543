(* Linearizability testing of the real queue implementations.

   Small concurrent histories are recorded against each queue and
   verified exhaustively with the WGL checker (the paper proves
   linearizability in §4; these tests look for counterexamples).
   Larger histories are checked with the polynomial necessary
   conditions.  A deliberately broken "queue" (a stack) validates
   that the pipeline actually rejects wrong implementations. *)

module H = Lincheck.History
module Q = Lincheck.Queue_spec
module Wgl = Lincheck.Wgl.Make (Lincheck.Queue_spec)
module FF = Lincheck.Fast_fifo

let check = Alcotest.check

(* A queue under test, reduced to per-thread closures over ints. *)
type subject = { register : unit -> (int -> unit) * (unit -> int option) }

let wf_subject ?(patience = 10) ?(segment_shift = 4) () =
  let q = Wfq.Wfqueue.create ~patience ~segment_shift ~max_garbage:2 () in
  {
    register =
      (fun () ->
        let h = Wfq.Wfqueue.register q in
        ((fun v -> Wfq.Wfqueue.enqueue q h v), fun () -> Wfq.Wfqueue.dequeue q h));
  }

let ofq_subject () =
  let q = Wfq.Obstruction_free.create ~segment_shift:4 () in
  {
    register =
      (fun () -> ((fun v -> Wfq.Obstruction_free.enqueue q v), fun () -> Wfq.Obstruction_free.dequeue q));
  }

let ms_subject () =
  let q = Baselines.Msqueue.create () in
  {
    register =
      (fun () ->
        let h = Baselines.Msqueue.register q in
        ((fun v -> Baselines.Msqueue.enqueue q h v), fun () -> Baselines.Msqueue.dequeue q h));
  }

let lcrq_subject () =
  let q = Baselines.Lcrq.create ~ring_size:8 () in
  {
    register =
      (fun () ->
        let h = Baselines.Lcrq.register q in
        ((fun v -> Baselines.Lcrq.enqueue q h v), fun () -> Baselines.Lcrq.dequeue q h));
  }

let cc_subject () =
  let q = Baselines.Ccqueue.create () in
  {
    register =
      (fun () ->
        let h = Baselines.Ccqueue.register q in
        ((fun v -> Baselines.Ccqueue.enqueue q h v), fun () -> Baselines.Ccqueue.dequeue q h));
  }

(* A Treiber stack masquerading as a queue: must be flagged. *)
let stack_subject () =
  let top = Atomic.make [] in
  let push v =
    let rec go () =
      let cur = Atomic.get top in
      if not (Atomic.compare_and_set top cur (v :: cur)) then go ()
    in
    go ()
  in
  let pop () =
    let rec go () =
      match Atomic.get top with
      | [] -> None
      | v :: rest as cur ->
        if Atomic.compare_and_set top cur rest then Some v else go ()
    in
    go ()
  in
  { register = (fun () -> (push, pop)) }

(* Record one small concurrent run: [threads] domains, each performing
   [ops] random operations with distinct values. *)
let record_history subject ~threads ~ops ~seed =
  let recorder = H.create_recorder ~threads in
  let barrier = Sync.Barrier.create threads in
  let domains =
    List.init threads (fun t ->
        Domain.spawn (fun () ->
            let enqueue, dequeue = subject.register () in
            let rng = Primitives.Splitmix64.create (Int64.of_int ((seed * 1000) + t)) in
            Sync.Barrier.await barrier;
            for i = 0 to ops - 1 do
              if Primitives.Splitmix64.bool rng then
                ignore
                  (H.record recorder ~thread:t
                     (Q.Enq ((t * 10_000) + i))
                     (fun () ->
                       enqueue ((t * 10_000) + i);
                       Q.Accepted))
              else
                ignore
                  (H.record recorder ~thread:t Q.Deq (fun () ->
                       match dequeue () with Some v -> Q.Got v | None -> Q.Empty))
            done))
  in
  List.iter Domain.join domains;
  H.events recorder

let assert_linearizable name mk_subject ~rounds ~threads ~ops =
  (* a fresh queue per round: each recorded history must be
     self-contained for the checker *)
  for seed = 1 to rounds do
    let evs = record_history (mk_subject ()) ~threads ~ops ~seed in
    match Wgl.check evs with
    | Wgl.Linearizable _ -> ()
    | Wgl.Not_linearizable ->
      Alcotest.failf "%s: non-linearizable history found (seed %d, %d events)" name seed
        (Array.length evs)
    | Wgl.Too_large -> Alcotest.failf "%s: history too large for WGL" name
  done

let test_wf_small_histories () =
  assert_linearizable "wfqueue" (fun () -> wf_subject ()) ~rounds:30 ~threads:3 ~ops:8

let test_wf_patience0_small_histories () =
  assert_linearizable "wfqueue p0" (fun () -> wf_subject ~patience:0 ()) ~rounds:30 ~threads:3 ~ops:8

let test_wf_more_threads () =
  assert_linearizable "wfqueue 4T"
    (fun () -> wf_subject ~patience:0 ~segment_shift:2 ())
    ~rounds:15 ~threads:4 ~ops:6

let test_obstruction_free_small_histories () =
  assert_linearizable "obstruction-free" (fun () -> ofq_subject ()) ~rounds:20 ~threads:3 ~ops:8

let test_msqueue_small_histories () =
  assert_linearizable "msqueue" (fun () -> ms_subject ()) ~rounds:20 ~threads:3 ~ops:8

let test_lcrq_small_histories () =
  assert_linearizable "lcrq" (fun () -> lcrq_subject ()) ~rounds:20 ~threads:3 ~ops:8

let test_ccqueue_small_histories () =
  assert_linearizable "ccqueue" (fun () -> cc_subject ()) ~rounds:20 ~threads:3 ~ops:8

let test_stack_rejected () =
  (* the checker pipeline must flag a stack once a history exposes
     LIFO behaviour; collect sequential evidence deterministically *)
  let subject = stack_subject () in
  let enqueue, dequeue = subject.register () in
  let recorder = H.create_recorder ~threads:1 in
  ignore (H.record recorder ~thread:0 (Q.Enq 1) (fun () -> enqueue 1; Q.Accepted));
  ignore (H.record recorder ~thread:0 (Q.Enq 2) (fun () -> enqueue 2; Q.Accepted));
  ignore
    (H.record recorder ~thread:0 Q.Deq (fun () ->
         match dequeue () with Some v -> Q.Got v | None -> Q.Empty));
  ignore
    (H.record recorder ~thread:0 Q.Deq (fun () ->
         match dequeue () with Some v -> Q.Got v | None -> Q.Empty));
  let evs = H.events recorder in
  check Alcotest.bool "stack flagged by WGL" false (Wgl.is_linearizable evs);
  check Alcotest.bool "stack flagged by fast checker" true (FF.check evs |> Result.is_error)

(* Large-history necessary-condition checks. *)
let assert_fast_fifo_clean name subject ~threads ~ops =
  let evs = record_history subject ~threads ~ops ~seed:7 in
  match FF.check evs with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: %s" name (Format.asprintf "%a" FF.pp_violation v)

let test_wf_large_history () =
  assert_fast_fifo_clean "wfqueue" (wf_subject ~patience:0 ~segment_shift:3 ()) ~threads:6
    ~ops:5_000

let test_wf_default_large_history () =
  assert_fast_fifo_clean "wfqueue wf-10" (wf_subject ()) ~threads:4 ~ops:10_000

let test_msqueue_large_history () =
  assert_fast_fifo_clean "msqueue" (ms_subject ()) ~threads:4 ~ops:5_000

let test_lcrq_large_history () =
  assert_fast_fifo_clean "lcrq" (lcrq_subject ()) ~threads:4 ~ops:5_000

let test_ccqueue_large_history () =
  assert_fast_fifo_clean "ccqueue" (cc_subject ()) ~threads:4 ~ops:5_000

let () =
  Alcotest.run "linearizability"
    [
      ( "wgl small histories",
        [
          Alcotest.test_case "wf-10" `Quick test_wf_small_histories;
          Alcotest.test_case "wf-0" `Quick test_wf_patience0_small_histories;
          Alcotest.test_case "wf 4 threads" `Quick test_wf_more_threads;
          Alcotest.test_case "obstruction-free" `Quick test_obstruction_free_small_histories;
          Alcotest.test_case "msqueue" `Quick test_msqueue_small_histories;
          Alcotest.test_case "lcrq" `Quick test_lcrq_small_histories;
          Alcotest.test_case "ccqueue" `Quick test_ccqueue_small_histories;
          Alcotest.test_case "stack rejected" `Quick test_stack_rejected;
        ] );
      ( "fast checks large histories",
        [
          Alcotest.test_case "wf-0 stress" `Quick test_wf_large_history;
          Alcotest.test_case "wf-10 stress" `Quick test_wf_default_large_history;
          Alcotest.test_case "msqueue stress" `Quick test_msqueue_large_history;
          Alcotest.test_case "lcrq stress" `Quick test_lcrq_large_history;
          Alcotest.test_case "ccqueue stress" `Quick test_ccqueue_large_history;
        ] );
    ]
