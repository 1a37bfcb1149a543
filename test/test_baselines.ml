(* Tests for the baseline queues the paper compares against:
   MS-Queue, CRQ/LCRQ, CC-Queue and the FAA microbenchmark facade,
   plus SCQ, the bounded-ring reference. *)

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest t

(* Shared black-box batteries, instantiated per implementation. *)
module type QUEUE = sig
  type 'a t
  type 'a handle

  val name : string
  val create : unit -> 'a t
  val register : 'a t -> 'a handle
  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue : 'a t -> 'a handle -> 'a option
end

module Battery (Q : QUEUE) = struct
  let test_fifo () =
    let q = Q.create () in
    let h = Q.register q in
    check Alcotest.(option int) "empty" None (Q.dequeue q h);
    for i = 1 to 1_000 do
      Q.enqueue q h i
    done;
    for i = 1 to 1_000 do
      check Alcotest.(option int) "fifo" (Some i) (Q.dequeue q h)
    done;
    check Alcotest.(option int) "drained" None (Q.dequeue q h)

  let test_alternating () =
    let q = Q.create () in
    let h = Q.register q in
    for i = 1 to 500 do
      Q.enqueue q h i;
      check Alcotest.(option int) "alternating" (Some i) (Q.dequeue q h);
      check Alcotest.(option int) "empty between" None (Q.dequeue q h)
    done

  let prop_model =
    QCheck.Test.make
      ~name:(Q.name ^ " sequential model")
      ~count:200
      QCheck.(list (oneof [ map (fun x -> `Enq x) small_nat; always `Deq ]))
      (fun program ->
        let q = Q.create () in
        let h = Q.register q in
        let model = Queue.create () in
        List.for_all
          (function
            | `Enq x ->
              Q.enqueue q h x;
              Queue.push x model;
              true
            | `Deq -> Q.dequeue q h = Queue.take_opt model)
          program)

  let test_mpmc () =
    let q = Q.create () in
    let nprod = 3 and ncons = 3 and n = 10_000 in
    let total = nprod * n in
    let consumed = Atomic.make 0 and sum = Atomic.make 0 in
    let producers =
      List.init nprod (fun p ->
          Domain.spawn (fun () ->
              let h = Q.register q in
              for i = 0 to n - 1 do
                Q.enqueue q h ((p * n) + i)
              done))
    in
    let consumers =
      List.init ncons (fun _ ->
          Domain.spawn (fun () ->
              let h = Q.register q in
              let continue = ref true in
              while !continue do
                match Q.dequeue q h with
                | Some v ->
                  ignore (Atomic.fetch_and_add sum v);
                  if Atomic.fetch_and_add consumed 1 = total - 1 then continue := false
                | None -> if Atomic.get consumed >= total then continue := false
              done))
    in
    List.iter Domain.join producers;
    List.iter Domain.join consumers;
    check Alcotest.int "all consumed" total (Atomic.get consumed);
    check Alcotest.int "checksum" (total * (total - 1) / 2) (Atomic.get sum)

  let suite =
    ( Q.name,
      [
        Alcotest.test_case "fifo" `Quick test_fifo;
        Alcotest.test_case "alternating" `Quick test_alternating;
        Alcotest.test_case "mpmc" `Quick test_mpmc;
        qtest prop_model;
      ] )
end

module Ms = Battery (struct
  include Baselines.Msqueue

  let name = "msqueue"
end)

module Lc = Battery (struct
  include Baselines.Lcrq

  let name = "lcrq"
  let create () = Baselines.Lcrq.create ~ring_size:16 ()
end)

module Cc = Battery (struct
  include Baselines.Ccqueue

  let name = "ccqueue"
  let create () = Baselines.Ccqueue.create ()
end)

module Sc = Battery (struct
  include Baselines.Scq

  let name = "scq"

  (* The battery's single-threaded cases stage up to tens of thousands
     of values before draining; a bounded ring must be big enough that
     the spinning [enqueue] never waits on an absent consumer. *)
  let create () = Baselines.Scq.create ~order:14 ()
end)

(* ------------------------------------------------------------------ *)
(* CRQ specifics                                                      *)

let test_crq_basic () =
  let c = Baselines.Crq.create ~size:8 in
  check Alcotest.bool "enq ok" true (Baselines.Crq.enqueue c 1 = `Ok);
  check Alcotest.bool "enq ok" true (Baselines.Crq.enqueue c 2 = `Ok);
  check Alcotest.(option int) "deq 1" (Some 1) (Baselines.Crq.dequeue c);
  check Alcotest.(option int) "deq 2" (Some 2) (Baselines.Crq.dequeue c);
  check Alcotest.(option int) "empty" None (Baselines.Crq.dequeue c)

let test_crq_wraparound () =
  let c = Baselines.Crq.create ~size:4 in
  (* cycle values through the ring repeatedly: slots are reused *)
  for round = 0 to 20 do
    for k = 0 to 2 do
      check Alcotest.bool "enq" true (Baselines.Crq.enqueue c ((round * 3) + k) = `Ok)
    done;
    for k = 0 to 2 do
      check Alcotest.(option int) "deq" (Some ((round * 3) + k)) (Baselines.Crq.dequeue c)
    done
  done

let test_crq_close () =
  let c = Baselines.Crq.create ~size:8 in
  check Alcotest.bool "open" false (Baselines.Crq.is_closed c);
  check Alcotest.bool "enq before close" true (Baselines.Crq.enqueue c 1 = `Ok);
  Baselines.Crq.close c;
  check Alcotest.bool "closed" true (Baselines.Crq.is_closed c);
  check Alcotest.bool "enq after close" true (Baselines.Crq.enqueue c 2 = `Closed);
  (* draining still works *)
  check Alcotest.(option int) "drain" (Some 1) (Baselines.Crq.dequeue c);
  check Alcotest.(option int) "empty" None (Baselines.Crq.dequeue c)

let test_crq_fills_up () =
  let c = Baselines.Crq.create ~size:4 in
  let rec fill n =
    if Baselines.Crq.enqueue c n = `Ok then fill (n + 1) else n
  in
  let accepted = fill 0 in
  check Alcotest.bool "closes when full" true (accepted >= 4);
  check Alcotest.bool "closed after overflow" true (Baselines.Crq.is_closed c);
  (* everything accepted is dequeued in order *)
  for i = 0 to accepted - 1 do
    check Alcotest.(option int) "ordered drain" (Some i) (Baselines.Crq.dequeue c)
  done;
  check Alcotest.(option int) "then empty" None (Baselines.Crq.dequeue c)

let test_crq_empty_overshoot_fixstate () =
  let c = Baselines.Crq.create ~size:8 in
  (* many empty dequeues push head beyond tail; fixState must let
     subsequent enqueues succeed *)
  for _ = 1 to 30 do
    check Alcotest.(option int) "empty" None (Baselines.Crq.dequeue c)
  done;
  check Alcotest.bool "enqueue recovers" true (Baselines.Crq.enqueue c 5 = `Ok);
  check Alcotest.(option int) "value lands" (Some 5) (Baselines.Crq.dequeue c)

let test_lcrq_ring_turnover () =
  let q = Baselines.Lcrq.create ~ring_size:4 () in
  let h = Baselines.Lcrq.register q in
  check Alcotest.int "one ring" 1 (Baselines.Lcrq.ring_count q);
  (* standing backlog > ring size forces closes and fresh rings *)
  for i = 1 to 64 do
    Baselines.Lcrq.enqueue q h i
  done;
  check Alcotest.bool "rings appended" true (Baselines.Lcrq.ring_count q > 1);
  for i = 1 to 64 do
    check Alcotest.(option int) "fifo across rings" (Some i) (Baselines.Lcrq.dequeue q h)
  done;
  check Alcotest.(option int) "drained" None (Baselines.Lcrq.dequeue q h)

(* ------------------------------------------------------------------ *)
(* SCQ specifics                                                      *)

let test_scq_bounded () =
  let q = Baselines.Scq.create ~order:2 () in
  let h = Baselines.Scq.register q in
  check Alcotest.int "capacity" 4 (Baselines.Scq.capacity q);
  for i = 1 to 4 do
    check Alcotest.bool "accepts to capacity" true (Baselines.Scq.try_enqueue q h i)
  done;
  check Alcotest.bool "rejects when full" false (Baselines.Scq.try_enqueue q h 5);
  check Alcotest.(option int) "fifo after reject" (Some 1) (Baselines.Scq.dequeue q h);
  check Alcotest.bool "slot freed" true (Baselines.Scq.try_enqueue q h 5);
  for i = 2 to 5 do
    check Alcotest.(option int) "drains in order" (Some i) (Baselines.Scq.dequeue q h)
  done;
  check Alcotest.(option int) "empty" None (Baselines.Scq.dequeue q h)

let test_scq_cycle_turnover () =
  (* Many full wraps of both rings: cycle tags must keep stale entries
     from masquerading as fresh ones. *)
  let q = Baselines.Scq.create ~order:3 () in
  let h = Baselines.Scq.register q in
  for round = 0 to 200 do
    for k = 0 to 5 do
      Baselines.Scq.enqueue q h ((round * 6) + k)
    done;
    for k = 0 to 5 do
      check Alcotest.(option int) "wrap fifo" (Some ((round * 6) + k))
        (Baselines.Scq.dequeue q h)
    done;
    check Alcotest.(option int) "wrap empty" None (Baselines.Scq.dequeue q h)
  done

let test_scq_dequeue_or () =
  let q = Baselines.Scq.create ~order:4 () in
  let h = Baselines.Scq.register q in
  check Alcotest.int "empty default" (-7) (Baselines.Scq.dequeue_or q h (-7));
  Baselines.Scq.enqueue q h 42;
  check Alcotest.int "value" 42 (Baselines.Scq.dequeue_or q h (-7));
  check Alcotest.int "empty again" (-7) (Baselines.Scq.dequeue_or q h (-7))

let test_scq_full_backpressure () =
  (* Producers outnumber capacity: [enqueue] must block (spin) rather
     than drop, and every value must come out exactly once. *)
  let q = Baselines.Scq.create ~order:2 () in
  let n = 2_000 in
  let producer =
    Domain.spawn (fun () ->
        let h = Baselines.Scq.register q in
        for i = 1 to n do
          Baselines.Scq.enqueue q h i
        done)
  in
  let h = Baselines.Scq.register q in
  let sum = ref 0 and got = ref 0 in
  while !got < n do
    match Baselines.Scq.dequeue q h with
    | Some v ->
      sum := !sum + v;
      incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.int "checksum through a full ring" (n * (n + 1) / 2) !sum

(* ------------------------------------------------------------------ *)
(* FAA microbenchmark facade                                          *)

let test_faa_counts () =
  let q = Baselines.Faa_bench.create () in
  let h = Baselines.Faa_bench.register q in
  check Alcotest.(option int) "before any enqueue" None (Baselines.Faa_bench.dequeue q h);
  Baselines.Faa_bench.enqueue q h 42;
  Baselines.Faa_bench.enqueue q h 43;
  check Alcotest.(option int) "witness value" (Some 42) (Baselines.Faa_bench.dequeue q h);
  check Alcotest.int "enqueue count" 2 (Baselines.Faa_bench.enqueue_count q);
  check Alcotest.int "dequeue count" 2 (Baselines.Faa_bench.dequeue_count q)

let test_faa_concurrent_counts () =
  let q = Baselines.Faa_bench.create () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let h = Baselines.Faa_bench.register q in
            for i = 1 to 10_000 do
              Baselines.Faa_bench.enqueue q h i;
              ignore (Baselines.Faa_bench.dequeue q h)
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "enqueues" 40_000 (Baselines.Faa_bench.enqueue_count q);
  check Alcotest.int "dequeues" 40_000 (Baselines.Faa_bench.dequeue_count q)

let () =
  Alcotest.run "baselines"
    [
      Ms.suite;
      Lc.suite;
      Cc.suite;
      Sc.suite;
      ( "scq-ring",
        [
          Alcotest.test_case "bounded try_enqueue" `Quick test_scq_bounded;
          Alcotest.test_case "cycle turnover" `Quick test_scq_cycle_turnover;
          Alcotest.test_case "dequeue_or" `Quick test_scq_dequeue_or;
          Alcotest.test_case "full-ring backpressure" `Quick test_scq_full_backpressure;
        ] );
      ( "crq",
        [
          Alcotest.test_case "basic" `Quick test_crq_basic;
          Alcotest.test_case "wraparound" `Quick test_crq_wraparound;
          Alcotest.test_case "close" `Quick test_crq_close;
          Alcotest.test_case "fills up" `Quick test_crq_fills_up;
          Alcotest.test_case "fixState after overshoot" `Quick test_crq_empty_overshoot_fixstate;
          Alcotest.test_case "lcrq ring turnover" `Quick test_lcrq_ring_turnover;
        ] );
      ( "faa",
        [
          Alcotest.test_case "counts" `Quick test_faa_counts;
          Alcotest.test_case "concurrent counts" `Quick test_faa_concurrent_counts;
        ] );
    ]
