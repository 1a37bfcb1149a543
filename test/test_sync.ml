(* Tests for the synchronization substrate: the barrier and the
   CC-Synch combining engine CC-Queue is built on. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Barrier                                                            *)

let test_barrier_parties () =
  let b = Sync.Barrier.create 3 in
  check Alcotest.int "parties" 3 (Sync.Barrier.parties b)

let test_barrier_single () =
  let b = Sync.Barrier.create 1 in
  (* must not block *)
  Sync.Barrier.await b;
  Sync.Barrier.await b

let test_barrier_rendezvous () =
  let parties = 4 in
  let b = Sync.Barrier.create parties in
  let before = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let rounds = 20 in
  let worker () =
    for _ = 1 to rounds do
      ignore (Atomic.fetch_and_add before 1);
      Sync.Barrier.await b;
      (* after the barrier, all parties of this round have incremented *)
      if Atomic.get before mod parties <> 0 && Atomic.get before < parties then
        ignore (Atomic.fetch_and_add failures 1);
      Sync.Barrier.await b (* separate rounds *)
    done
  in
  let domains = List.init parties (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check Alcotest.int "total increments" (parties * rounds) (Atomic.get before);
  check Alcotest.int "no early release" 0 (Atomic.get failures)

(* ------------------------------------------------------------------ *)
(* CC-Synch                                                            *)

let test_ccsynch_sequential () =
  let s = Sync.Ccsynch.create () in
  let h = Sync.Ccsynch.handle s in
  let x = Sync.Ccsynch.apply s h (fun () -> 21 * 2) in
  check Alcotest.int "returns result" 42 x;
  let acc = ref [] in
  for i = 1 to 10 do
    Sync.Ccsynch.apply s h (fun () -> acc := i :: !acc)
  done;
  check Alcotest.(list int) "operations in order" [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ] !acc

let test_ccsynch_atomicity () =
  (* The classic non-atomic increment becomes safe under combining. *)
  let s = Sync.Ccsynch.create () in
  let counter = ref 0 in
  let per_thread = 20_000 in
  let worker () =
    let h = Sync.Ccsynch.handle s in
    for _ = 1 to per_thread do
      Sync.Ccsynch.apply s h (fun () ->
          let v = !counter in
          counter := v + 1)
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check Alcotest.int "atomic increments" (4 * per_thread) !counter

let test_ccsynch_max_combine () =
  (* max_combine = 1 still completes everything (the combiner role is
     handed over after each request). *)
  let s = Sync.Ccsynch.create ~max_combine:1 () in
  let counter = ref 0 in
  let worker () =
    let h = Sync.Ccsynch.handle s in
    for _ = 1 to 5_000 do
      Sync.Ccsynch.apply s h (fun () -> incr counter)
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check Alcotest.int "all applied" 15_000 !counter

let test_ccsynch_distinct_results () =
  let s = Sync.Ccsynch.create () in
  let results = Array.make 4 0 in
  let worker i () =
    let h = Sync.Ccsynch.handle s in
    let total = ref 0 in
    for k = 1 to 1_000 do
      total := !total + Sync.Ccsynch.apply s h (fun () -> (i * 1_000) + k)
    done;
    results.(i) <- !total
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  Array.iteri
    (fun i total ->
      (* sum_{k=1..1000} (i*1000 + k) *)
      let expected = (i * 1_000 * 1_000) + (1_000 * 1_001 / 2) in
      check Alcotest.int (Printf.sprintf "thread %d got its own results" i) expected total)
    results

let () =
  Alcotest.run "sync"
    [
      ( "barrier",
        [
          Alcotest.test_case "parties" `Quick test_barrier_parties;
          Alcotest.test_case "single party" `Quick test_barrier_single;
          Alcotest.test_case "rendezvous" `Quick test_barrier_rendezvous;
        ] );
      ( "ccsynch",
        [
          Alcotest.test_case "sequential" `Quick test_ccsynch_sequential;
          Alcotest.test_case "atomicity" `Quick test_ccsynch_atomicity;
          Alcotest.test_case "max_combine 1" `Quick test_ccsynch_max_combine;
          Alcotest.test_case "distinct results" `Quick test_ccsynch_distinct_results;
        ] );
    ]
