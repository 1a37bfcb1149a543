(* Black-box tests of the wait-free queue's public API (sequential
   semantics, configuration, statistics, batch operations).  Concurrency is covered by
   test_wfqueue_concurrent.ml, the slow paths by
   test_wfqueue_slowpath.ml, linearizability by
   test_linearizability.ml, and reclamation by test_reclamation.ml. *)

module W = Wfq.Wfqueue

let check = Alcotest.check

let test_fifo_basic () =
  let q = W.create () in
  let h = W.register q in
  check Alcotest.(option int) "empty at start" None (W.dequeue q h);
  W.enqueue q h 1;
  W.enqueue q h 2;
  W.enqueue q h 3;
  check Alcotest.(option int) "1st" (Some 1) (W.dequeue q h);
  check Alcotest.(option int) "2nd" (Some 2) (W.dequeue q h);
  check Alcotest.(option int) "3rd" (Some 3) (W.dequeue q h);
  check Alcotest.(option int) "drained" None (W.dequeue q h)

let test_fifo_large_crosses_segments () =
  let q = W.create ~segment_shift:4 () in
  let h = W.register q in
  let n = 10_000 in
  for i = 1 to n do
    W.enqueue q h i
  done;
  for i = 1 to n do
    check Alcotest.(option int) "fifo across segments" (Some i) (W.dequeue q h)
  done;
  check Alcotest.(option int) "drained" None (W.dequeue q h)

let test_interleaved () =
  let q = W.create () in
  let h = W.register q in
  for round = 0 to 499 do
    W.enqueue q h (2 * round);
    W.enqueue q h ((2 * round) + 1);
    check Alcotest.(option int) "a" (Some (2 * round)) (W.dequeue q h);
    check Alcotest.(option int) "b" (Some ((2 * round) + 1)) (W.dequeue q h)
  done;
  check Alcotest.(option int) "end" None (W.dequeue q h)

let test_patience_zero_sequential () =
  let q = W.create ~patience:0 () in
  let h = W.register q in
  for i = 1 to 2_000 do
    W.enqueue q h i
  done;
  for i = 1 to 2_000 do
    check Alcotest.(option int) "wf-0 fifo" (Some i) (W.dequeue q h)
  done

let test_polymorphic_payloads () =
  let q = W.create () in
  let h = W.register q in
  W.enqueue q h "hello";
  W.enqueue q h "world";
  check Alcotest.(option string) "strings" (Some "hello") (W.dequeue q h);
  check Alcotest.(option string) "strings" (Some "world") (W.dequeue q h);
  (* closures as payloads exercise the no-structural-equality rule *)
  let qf : (int -> int) W.t = W.create () in
  let hf = W.register qf in
  W.enqueue qf hf (fun x -> x + 1);
  (match W.dequeue qf hf with
  | Some f -> check Alcotest.int "closure survives" 42 (f 41)
  | None -> Alcotest.fail "lost closure")

let test_approx_length () =
  let q = W.create () in
  let h = W.register q in
  check Alcotest.int "empty" 0 (W.approx_length q);
  for i = 1 to 10 do
    W.enqueue q h i
  done;
  check Alcotest.int "ten" 10 (W.approx_length q);
  ignore (W.dequeue q h);
  check Alcotest.int "nine" 9 (W.approx_length q);
  for _ = 1 to 9 do
    ignore (W.dequeue q h)
  done;
  check Alcotest.int "zero" 0 (W.approx_length q);
  ignore (W.dequeue q h);
  check Alcotest.int "still zero after an EMPTY" 0 (W.approx_length q)

(* EMPTY is answered before the head FAA: polls of an empty queue take
   no ticket, so they neither poison the cells the next enqueues draw
   nor drag the head through fresh segments.  Under the paper's
   unconditional FAA, 10^5 burnt tickets would allocate ~100 segments
   and send the enqueue down the slow path past every poisoned cell. *)
let test_empty_polls_burn_nothing () =
  let q = W.create () in
  let h = W.register q in
  let out = Array.make 4 0 in
  let values = ref 0 in
  for _ = 1 to 10_000 do
    if W.dequeue q h <> None then incr values;
    if W.dequeue_or q h (-1) <> -1 then incr values;
    if not (Array.for_all Option.is_none (W.deq_batch q h 4)) then incr values;
    values := !values + W.deq_batch_into q h out ~default:0
  done;
  check Alcotest.int "every poll EMPTY" 0 !values;
  W.enqueue q h 7;
  check Alcotest.int "one segment" 1 (W.allocated_segments q);
  check Alcotest.int "no slow enqueue" 0 (W.stats q).Wfq.Op_stats.slow_enqueues;
  check Alcotest.(option int) "the value is there" (Some 7) (W.dequeue q h)

let test_multiple_queues_independent () =
  let q1 = W.create () and q2 = W.create () in
  let h1 = W.register q1 and h2 = W.register q2 in
  W.enqueue q1 h1 1;
  W.enqueue q2 h2 100;
  check Alcotest.(option int) "q2 own value" (Some 100) (W.dequeue q2 h2);
  check Alcotest.(option int) "q2 then empty" None (W.dequeue q2 h2);
  check Alcotest.(option int) "q1 unaffected" (Some 1) (W.dequeue q1 h1)

let test_push_pop_implicit_handles () =
  let q = W.create () in
  W.push q 5;
  W.push q 6;
  check Alcotest.(option int) "pop" (Some 5) (W.pop q);
  let d =
    Domain.spawn (fun () ->
        (* a different domain gets its own implicit handle *)
        W.push q 7;
        W.pop q)
  in
  let from_other = Domain.join d in
  check Alcotest.(option int) "other domain pops fifo head" (Some 6) from_other;
  check Alcotest.(option int) "remaining" (Some 7) (W.pop q)

let test_stats_counting () =
  let q = W.create () in
  let h = W.register q in
  for i = 1 to 10 do
    W.enqueue q h i
  done;
  for _ = 1 to 12 do
    ignore (W.dequeue q h)
  done;
  let s = W.stats q in
  check Alcotest.int "enqueues" 10 (Wfq.Op_stats.total_enqueues s);
  check Alcotest.int "dequeues" 12 (Wfq.Op_stats.total_dequeues s);
  check Alcotest.int "empties" 2 s.Wfq.Op_stats.empty_dequeues;
  check Alcotest.int "no slow enq uncontended" 0 s.Wfq.Op_stats.slow_enqueues;
  W.reset_stats q;
  let s = W.stats q in
  check Alcotest.int "reset" 0 (Wfq.Op_stats.total_enqueues s)

let test_handle_stats_per_handle () =
  let q = W.create () in
  let h1 = W.register q in
  let h2 = W.register q in
  W.enqueue q h1 1;
  W.enqueue q h2 2;
  W.enqueue q h2 3;
  check Alcotest.int "h1 enqueues" 1 (Wfq.Op_stats.total_enqueues (W.handle_stats h1));
  check Alcotest.int "h2 enqueues" 2 (Wfq.Op_stats.total_enqueues (W.handle_stats h2));
  check Alcotest.int "aggregate" 3 (Wfq.Op_stats.total_enqueues (W.stats q))

let test_patience_accessor () =
  check Alcotest.int "default 10" 10 (W.patience (W.create ()));
  check Alcotest.int "explicit" 3 (W.patience (W.create ~patience:3 ()))

let test_many_handles_same_domain () =
  (* several handles in one domain — legal as long as each operation
     uses one handle at a time *)
  let q = W.create () in
  let handles = List.init 8 (fun _ -> W.register q) in
  List.iteri (fun i h -> W.enqueue q h i) handles;
  let got = List.filter_map (fun h -> W.dequeue q h) handles in
  check Alcotest.(list int) "all values fifo" [ 0; 1; 2; 3; 4; 5; 6; 7 ] got

(* Model-based sequential property: arbitrary enq/deq programs match
   Stdlib.Queue. *)
let prop_sequential_model =
  let open QCheck in
  Test.make ~name:"sequential model equivalence" ~count:300
    (list (oneof [ Gen.map (fun x -> `Enq x) Gen.small_nat |> make; always `Deq ]))
    (fun program ->
      let q = W.create ~segment_shift:3 () in
      let h = W.register q in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | `Enq x ->
            W.enqueue q h x;
            Queue.push x model;
            true
          | `Deq -> W.dequeue q h = Queue.take_opt model)
        program)

(* ------------------------------------------------------------------ *)
(* Batch operations: one FAA reserves k consecutive cells              *)

let test_batch_roundtrip () =
  let q = W.create () in
  let h = W.register q in
  W.enq_batch q h [| 1; 2; 3; 4; 5 |];
  check Alcotest.int "length after batch" 5 (W.approx_length q);
  let out = W.deq_batch q h 5 in
  check Alcotest.(array (option int)) "FIFO cell order"
    [| Some 1; Some 2; Some 3; Some 4; Some 5 |]
    out;
  check Alcotest.(option int) "drained" None (W.dequeue q h)

let test_batch_partial () =
  (* a k-batch against a shorter queue returns the values in order
     and EMPTY holes for the rest *)
  let q = W.create () in
  let h = W.register q in
  W.enq_batch q h [| 10; 20 |];
  let out = W.deq_batch q h 4 in
  check Alcotest.(array (option int)) "partial batch" [| Some 10; Some 20; None; None |] out

let test_batch_interleaves_with_singles () =
  let q = W.create () in
  let h = W.register q in
  W.enqueue q h 1;
  W.enq_batch q h [| 2; 3 |];
  W.enqueue q h 4;
  check Alcotest.(option int) "single sees batch order" (Some 1) (W.dequeue q h);
  check Alcotest.(array (option int)) "batch sees single order" [| Some 2; Some 3 |]
    (W.deq_batch q h 2);
  check Alcotest.(option int) "tail value" (Some 4) (W.dequeue q h)

let test_batch_empty_noops () =
  (* zero-size batches must not consume FAA tickets *)
  let q = W.create () in
  let h = W.register q in
  let t0 = W.Internal.tail_index q and h0 = W.Internal.head_index q in
  W.enq_batch q h [||];
  check Alcotest.(array (option int)) "deq_batch 0" [||] (W.deq_batch q h 0);
  check Alcotest.(array (option int)) "deq_batch negative" [||] (W.deq_batch q h (-3));
  check Alcotest.int "tail ticket untouched" t0 (W.Internal.tail_index q);
  check Alcotest.int "head ticket untouched" h0 (W.Internal.head_index q)

let test_batch_one_faa_per_batch () =
  (* the amortization claim itself: k cells move T by k with one
     reservation, not k *)
  let q = W.create () in
  let h = W.register q in
  let t0 = W.Internal.tail_index q in
  W.enq_batch q h (Array.init 64 Fun.id);
  check Alcotest.int "tail moved by exactly k" (t0 + 64) (W.Internal.tail_index q);
  let h0 = W.Internal.head_index q in
  let out = W.deq_batch q h 64 in
  check Alcotest.int "head moved by exactly k" (h0 + 64) (W.Internal.head_index q);
  check Alcotest.int "all values out" 64
    (Array.fold_left (fun acc -> function Some _ -> acc + 1 | None -> acc) 0 out)

let test_batch_segment_crossing () =
  (* tiny segments force one batch to span several segment
     allocations *)
  let q = W.create ~segment_shift:1 ~max_garbage:2 () in
  let h = W.register q in
  let n = 100 in
  W.enq_batch q h (Array.init n Fun.id);
  let out = W.deq_batch q h n in
  let got = Array.to_list out |> List.filter_map Fun.id in
  check Alcotest.(list int) "order across segments" (List.init n Fun.id) got

let test_batch_obs_counters () =
  (* the instrumented build records batch sizes; the production build
     compiles the event tier out *)
  let module O = Wfq.Wfqueue_obs in
  let q = O.create () in
  let h = O.register q in
  O.enq_batch q h [| 1; 2; 3 |];
  ignore (O.deq_batch q h 3);
  let s = O.stats q in
  check Alcotest.int "enq batches" 1 s.Obs.Counters.enq_batches;
  check Alcotest.int "enq batch cells" 3 s.Obs.Counters.enq_batch_cells;
  check Alcotest.int "deq batches" 1 s.Obs.Counters.deq_batches;
  check Alcotest.int "deq batch cells" 3 s.Obs.Counters.deq_batch_cells;
  check (Alcotest.float 0.01) "avg enq batch" 3.0 (Obs.Counters.avg_enq_batch s);
  (* production instantiation: event tier off *)
  let q = W.create () in
  let h = W.register q in
  W.enq_batch q h [| 1; 2; 3 |];
  ignore (W.deq_batch q h 3);
  let s = W.stats q in
  check Alcotest.int "disabled probe records no batches" 0 s.Obs.Counters.enq_batches;
  check Alcotest.int "path tier still counted" 3 s.Obs.Counters.fast_enqueues

let () =
  Alcotest.run "wfqueue"
    [
      ( "sequential",
        [
          Alcotest.test_case "fifo basic" `Quick test_fifo_basic;
          Alcotest.test_case "crosses segments" `Quick test_fifo_large_crosses_segments;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "patience 0" `Quick test_patience_zero_sequential;
          Alcotest.test_case "polymorphic payloads" `Quick test_polymorphic_payloads;
          Alcotest.test_case "approx_length" `Quick test_approx_length;
          Alcotest.test_case "EMPTY polls burn nothing" `Quick test_empty_polls_burn_nothing;
          Alcotest.test_case "independent queues" `Quick test_multiple_queues_independent;
          Alcotest.test_case "many handles" `Quick test_many_handles_same_domain;
          QCheck_alcotest.to_alcotest prop_sequential_model;
        ] );
      ( "api",
        [
          Alcotest.test_case "push/pop implicit" `Quick test_push_pop_implicit_handles;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "per-handle stats" `Quick test_handle_stats_per_handle;
          Alcotest.test_case "patience accessor" `Quick test_patience_accessor;
        ] );
      ( "batch-ops",
        [
          Alcotest.test_case "roundtrip order" `Quick test_batch_roundtrip;
          Alcotest.test_case "partial batch" `Quick test_batch_partial;
          Alcotest.test_case "interleaves with singles" `Quick test_batch_interleaves_with_singles;
          Alcotest.test_case "zero-size no-ops" `Quick test_batch_empty_noops;
          Alcotest.test_case "one FAA per batch" `Quick test_batch_one_faa_per_batch;
          Alcotest.test_case "segment crossing" `Quick test_batch_segment_crossing;
          Alcotest.test_case "obs counters" `Quick test_batch_obs_counters;
        ] );
    ]
