(* The allocation discipline, pinned: the disabled-probe fast path
   allocates zero minor words per enqueue/dequeue pair, the option API
   pays exactly its [Some] box, the Alloc_probe accumulator accounts
   correctly, the int queue's [dequeue_or] is behaviorally identical
   to the option API, dequeue_or linearizes under simsched schedules,
   and every [Alloc_bench] default row stays within its exact
   bound.

   Methodology for the zero assertions: [Gc.minor_words] is an exact
   per-domain allocation counter (not a sampled statistic), so after
   driving the queue into its recycling steady state the fast path
   should show literally 0.0 words for almost every operation.  The
   tolerance exists for the operations that legitimately are not
   fast-path-only: a cleanup pass fires every [max_garbage] segments
   and allocates a few scan refs, and the occasional pool miss builds
   a segment.  Those are rare and bounded, so the aggregate mean stays
   far below one word/op — and an accidental box on the hot path (2
   words on every op) clears the tolerance by 20x. *)

module Q = Wfq.Wfqueue
module AP = Obs.Alloc_probe

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Alloc_probe accounting                                              *)

let test_probe_accounting () =
  let a = AP.create () in
  check (Alcotest.float 0.0) "fresh words/op" 0.0 (AP.words_per_op a);
  AP.record a AP.Enqueue 0.0;
  AP.record a AP.Enqueue 4.0;
  AP.record a AP.Dequeue 2.0;
  check (Alcotest.float 1e-9) "enq ops" 2.0 (AP.ops a AP.Enqueue);
  check (Alcotest.float 1e-9) "enq words" 4.0 (AP.words a AP.Enqueue);
  check (Alcotest.float 1e-9) "deq ops" 1.0 (AP.ops a AP.Dequeue);
  check (Alcotest.float 1e-9) "words/enq" 2.0 (AP.words_per_enqueue a);
  check (Alcotest.float 1e-9) "words/deq" 2.0 (AP.words_per_dequeue a);
  check (Alcotest.float 1e-9) "words/op" 2.0 (AP.words_per_op a);
  let b = AP.create () in
  AP.record b AP.Dequeue 6.0;
  AP.merge_into ~into:a b;
  check (Alcotest.float 1e-9) "merged deq ops" 2.0 (AP.ops a AP.Dequeue);
  check (Alcotest.float 1e-9) "merged deq words" 8.0 (AP.words a AP.Dequeue);
  check (Alcotest.float 1e-9) "source untouched" 1.0 (AP.ops b AP.Dequeue);
  AP.reset a;
  check (Alcotest.float 0.0) "reset" 0.0 (AP.ops a AP.Enqueue +. AP.ops a AP.Dequeue)

(* ------------------------------------------------------------------ *)
(* The zero-allocation fast path                                       *)

(* Measure [pairs] enqueue/dequeue pairs in steady state with a per-op
   window each, returning (mean words/op, fraction of ops with a
   literally-zero window). *)
let measure_pairs ~warmup ~pairs ~enq ~deq =
  for i = 0 to warmup - 1 do
    enq i;
    deq ()
  done;
  let total = ref 0.0 and zero = ref 0 in
  let window f =
    let w0 = Gc.minor_words () in
    f ();
    let d = Gc.minor_words () -. w0 in
    total := !total +. d;
    if d = 0.0 then incr zero
  in
  for i = 0 to pairs - 1 do
    window (fun () -> enq i);
    window (fun () -> deq ())
  done;
  let ops = float_of_int (2 * pairs) in
  (!total /. ops, float_of_int !zero /. ops)

let test_generic_dequeue_or_zero () =
  let q = Q.create ~patience:10 () in
  let h = Q.register q in
  let wpo, zero_frac =
    measure_pairs ~warmup:60_000 ~pairs:20_000
      ~enq:(fun i -> Q.enqueue q h i)
      ~deq:(fun () -> ignore (Q.dequeue_or q h min_int))
  in
  Alcotest.(check bool)
    (Printf.sprintf "words/op %.4f <= 0.1" wpo)
    true (wpo <= 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f of ops exactly zero" zero_frac)
    true (zero_frac >= 0.99)

let test_int_facade_zero () =
  let q : int Q.t = Q.create ~patience:10 () in
  let h = Q.register q in
  let wpo, zero_frac =
    measure_pairs ~warmup:60_000 ~pairs:20_000
      ~enq:(fun i -> Q.enqueue q h i)
      ~deq:(fun () -> ignore (Q.dequeue_or q h min_int))
  in
  Alcotest.(check bool)
    (Printf.sprintf "words/op %.4f <= 0.1" wpo)
    true (wpo <= 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f of ops exactly zero" zero_frac)
    true (zero_frac >= 0.99)

let test_option_api_pays_the_box () =
  (* the option dequeue allocates its [Some] box — and nothing else:
     words/op lands at ~1.0 (2 words on the dequeue, 0 on the
     enqueue) *)
  let q = Q.create ~patience:10 () in
  let h = Q.register q in
  let wpo, _ =
    measure_pairs ~warmup:60_000 ~pairs:20_000
      ~enq:(fun i -> Q.enqueue q h i)
      ~deq:(fun () -> ignore (Q.dequeue q h))
  in
  Alcotest.(check bool)
    (Printf.sprintf "words/op %.4f in [0.9, 1.2]" wpo)
    true
    (wpo >= 0.9 && wpo <= 1.2)

let test_instrumented_build_zero () =
  (* the event-counter tier (Probe.Enabled) mutates unboxed int fields
     — enabling it must not add words *)
  let module Qo = Wfq.Wfqueue_obs in
  let q = Qo.create ~patience:10 () in
  let h = Qo.register q in
  let wpo, zero_frac =
    measure_pairs ~warmup:60_000 ~pairs:20_000
      ~enq:(fun i -> Qo.enqueue q h i)
      ~deq:(fun () -> ignore (Qo.dequeue_or q h min_int))
  in
  Alcotest.(check bool)
    (Printf.sprintf "words/op %.4f <= 0.1" wpo)
    true (wpo <= 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f of ops exactly zero" zero_frac)
    true (zero_frac >= 0.99)

let test_alloc_bench_row () =
  (* the harness measurement agrees with the direct one and carries
     the factory's name through *)
  let row =
    Harness.Alloc_bench.measure ~warmup_pairs:20_000 ~pairs:5_000 ~via_dequeue_or:true
      (Harness.Queues.wf ~patience:10 ())
  in
  check Alcotest.string "name" "wf-10" row.Harness.Alloc_bench.aname;
  Alcotest.(check bool)
    (Printf.sprintf "row words/op %.4f <= 0.1" row.Harness.Alloc_bench.words_per_op)
    true
    (row.Harness.Alloc_bench.words_per_op <= 0.1)

let test_alloc_bounded_and_scq_zero () =
  (* bounded mode's cap bookkeeping and the SCQ ring baseline both
     hold the hot-path zero *)
  List.iter
    (fun f ->
      let row =
        Harness.Alloc_bench.measure ~warmup_pairs:20_000 ~pairs:5_000 ~via_dequeue_or:true f
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s words/op %.4f <= 0.1" row.Harness.Alloc_bench.aname
           row.Harness.Alloc_bench.words_per_op)
        true
        (row.Harness.Alloc_bench.words_per_op <= 0.1))
    [ Harness.Queues.wf_bounded (); Harness.Queues.scq () ]

let test_alloc_bench_default_rows () =
  (* the five pinned rows: every dequeue_or row holds the hot-path
     zero, and the option API pays exactly its [Some] box (2 words on
     each dequeue, 1.0 per op).  [Gc.minor_words] is an exact count,
     so the bounds can be tight: one extra 2-word box per operation
     fails either. *)
  let rows = Harness.Alloc_bench.default_rows ~warmup_pairs:20_000 ~pairs:5_000 () in
  check Alcotest.int "row count" 5 (List.length rows);
  List.iter
    (fun (r : Harness.Alloc_bench.row) ->
      let w = r.words_per_op in
      if r.via_dequeue_or then
        Alcotest.(check bool) (Printf.sprintf "%s words/op %.4f <= 0.1" r.aname w) true (w <= 0.1)
      else begin
        check Alcotest.string "the option-API row" "wf-10" r.aname;
        Alcotest.(check bool)
          (Printf.sprintf "%s words/op %.4f in [0.9, 1.1]" r.aname w)
          true
          (w >= 0.9 && w <= 1.1)
      end)
    rows

(* ------------------------------------------------------------------ *)
(* dequeue_or semantics and its equivalence with the option API        *)

let test_dequeue_or_semantics () =
  let q = Q.create () in
  let h = Q.register q in
  check Alcotest.int "empty -> default" (-7) (Q.dequeue_or q h (-7));
  Q.enqueue q h 42;
  check Alcotest.int "hit" 42 (Q.dequeue_or q h (-7));
  check Alcotest.int "drained -> default" (-7) (Q.dequeue_or q h (-7));
  (* the documented caveat: a queued value equal to the default is
     indistinguishable from EMPTY — it is still dequeued *)
  Q.enqueue q h (-7);
  check Alcotest.int "default-valued element" (-7) (Q.dequeue_or q h (-7));
  check (Alcotest.option Alcotest.int) "and it is gone" None (Q.dequeue q h)

let test_int_vs_generic_equivalence () =
  (* the same seeded op sequence against the option API and an
     [int Wfqueue.t] polled with dequeue_or must agree op for op *)
  let rng = Primitives.Splitmix64.create 0xA110CL in
  let qg = Q.create ~patience:10 ~segment_shift:4 ~max_garbage:4 () in
  let hg = Q.register qg in
  let qi : int Q.t = Q.create ~patience:10 ~segment_shift:4 ~max_garbage:4 () in
  let hi = Q.register qi in
  for i = 0 to 9_999 do
    if Primitives.Splitmix64.bool rng then begin
      Q.enqueue qg hg i;
      Q.enqueue qi hi i
    end
    else
      let g = match Q.dequeue qg hg with Some v -> v | None -> min_int in
      let v = Q.dequeue_or qi hi min_int in
      check Alcotest.int (Printf.sprintf "op %d" i) g v
  done;
  check Alcotest.int "same length" (Q.approx_length qg) (Q.approx_length qi)

(* ------------------------------------------------------------------ *)
(* dequeue_or under simsched schedules                                 *)

let test_dequeue_or_linearizable () =
  let module Sq = Simsched.Sim.Queue in
  let module Sim = Simsched.Sim in
  let module H = Lincheck.History in
  let module Spec = Lincheck.Queue_spec in
  let module Wgl = Lincheck.Wgl.Make (Lincheck.Queue_spec) in
  for seed = 1 to 1_500 do
    let q = Sq.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let handles = Array.init 3 (fun _ -> Sq.register q) in
    let events = ref [] in
    let record thread input f =
      let inv = Sim.now () in
      let output = f () in
      let res = Sim.now () in
      events := { H.thread; input; output; inv; res } :: !events
    in
    let fiber t () =
      let h = handles.(t) in
      let rng = Primitives.Splitmix64.create (Int64.of_int ((seed * 977) + t)) in
      for i = 0 to 2 do
        if Primitives.Splitmix64.bool rng then
          record t (Spec.Enq ((t * 100) + i)) (fun () ->
              Sq.enqueue q h ((t * 100) + i);
              Spec.Accepted)
        else
          record t Spec.Deq (fun () ->
              (* values are nonnegative, so min_int is out of band *)
              match Sq.dequeue_or q h min_int with
              | v when v = min_int -> Spec.Empty
              | v -> Spec.Got v)
      done
    in
    let stats = Sim.run ~seed:(Int64.of_int seed) [| fiber 0; fiber 1; fiber 2 |] in
    if stats.Sim.max_steps_hit then
      Alcotest.failf "seed %d: scheduler step limit hit" seed;
    let evs = Array.of_list (List.rev !events) in
    Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
    match Wgl.check evs with
    | Wgl.Linearizable _ -> ()
    | Wgl.Not_linearizable -> Alcotest.failf "seed %d: non-linearizable schedule" seed
    | Wgl.Too_large -> Alcotest.fail "history too large"
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "alloc"
    [
      ( "probe",
        [
          Alcotest.test_case "accounting" `Quick test_probe_accounting;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "generic dequeue_or" `Quick test_generic_dequeue_or_zero;
          Alcotest.test_case "int facade" `Quick test_int_facade_zero;
          Alcotest.test_case "option API pays the box" `Quick test_option_api_pays_the_box;
          Alcotest.test_case "instrumented build" `Quick test_instrumented_build_zero;
          Alcotest.test_case "alloc_bench row" `Quick test_alloc_bench_row;
          Alcotest.test_case "bounded mode & scq" `Quick test_alloc_bounded_and_scq_zero;
          Alcotest.test_case "alloc_bench default rows" `Quick test_alloc_bench_default_rows;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "dequeue_or" `Quick test_dequeue_or_semantics;
          Alcotest.test_case "int vs generic" `Quick test_int_vs_generic_equivalence;
          Alcotest.test_case "dequeue_or linearizable (simsched)" `Quick
            test_dequeue_or_linearizable;
        ] );
    ]
