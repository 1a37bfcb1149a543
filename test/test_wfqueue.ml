(* Black-box tests of the wait-free queue's public API (sequential
   semantics, configuration, statistics).  Concurrency is covered by
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
  let values = ref 0 in
  for _ = 1 to 10_000 do
    if W.dequeue q h <> None then incr values;
    if W.dequeue_or q h (-1) <> -1 then incr values
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
    ]
