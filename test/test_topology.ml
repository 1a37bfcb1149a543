(* The specialized topology variants and the adaptive queue.

   Four layers of coverage:

   - sequential semantics of each variant on hardware atomics (FIFO
     across segment boundaries, batch APIs, role enforcement, the
     compile-out build matrix, the zero-allocation hot path);
   - linearizability of each variant on the deterministic scheduler:
     systematic exploration of small topology-legal histories with the
     WGL checker, plus wider random-schedule sweeps;
   - the adaptive degrade protocol: mode-lattice transitions, value
     conservation and per-producer FIFO across the drain-then-switch,
     under both sequential driving and random-schedule sweeps (the
     quiesce spin resolves under the random scheduler; systematic
     exploration covers the post-switch dispatch, where no fiber can
     block);
   - the routers' view: [Shard.Adaptive] exposing the same QUEUE
     surface through topology-adaptive shards. *)

module Sim = Simsched.Sim
module H = Lincheck.History
module Spec = Lincheck.Queue_spec
module Wgl = Lincheck.Wgl.Make (Lincheck.Queue_spec)

let check = Alcotest.check

let run_ok ?max_steps ~seed fibers =
  let stats = Sim.run ?max_steps ~seed:(Int64.of_int seed) fibers in
  if stats.Sim.max_steps_hit then
    Alcotest.failf "seed %d: scheduler step limit hit (livelock?)" seed;
  stats

(* ------------------------------------------------------------------ *)
(* Sequential semantics, production builds                            *)

(* Every variant reduced to closures over one registered handle (a
   single handle may legally hold both roles in any topology). *)
type seq_api = {
  enq : int -> unit;
  deq : unit -> int option;
  deq_or : int -> int;
  enq_batch : int array -> unit;
  deq_batch_into : int array -> default:int -> int;
  length : unit -> int;
}

let spsc_api ?(segment_shift = 2) ?(max_garbage = 2) () =
  let module Q = Topology.Spsc in
  let q = Q.create ~segment_shift ~max_garbage () in
  let h = Q.register q in
  {
    enq = (fun v -> Q.enqueue q h v);
    deq = (fun () -> Q.dequeue q h);
    deq_or = (fun d -> Q.dequeue_or q h d);
    enq_batch = (fun a -> Q.enq_batch q h a);
    deq_batch_into = (fun a ~default -> Q.deq_batch_into q h a ~default);
    length = (fun () -> Q.approx_length q);
  }

let mpsc_api ?(segment_shift = 2) ?(max_garbage = 2) () =
  let module Q = Topology.Mpsc in
  let q = Q.create ~segment_shift ~max_garbage () in
  let h = Q.register q in
  {
    enq = (fun v -> Q.enqueue q h v);
    deq = (fun () -> Q.dequeue q h);
    deq_or = (fun d -> Q.dequeue_or q h d);
    enq_batch = (fun a -> Q.enq_batch q h a);
    deq_batch_into = (fun a ~default -> Q.deq_batch_into q h a ~default);
    length = (fun () -> Q.approx_length q);
  }

let spmc_api ?(segment_shift = 2) ?(max_garbage = 2) () =
  let module Q = Topology.Spmc in
  let q = Q.create ~segment_shift ~max_garbage () in
  let h = Q.register q in
  {
    enq = (fun v -> Q.enqueue q h v);
    deq = (fun () -> Q.dequeue q h);
    deq_or = (fun d -> Q.dequeue_or q h d);
    enq_batch = (fun a -> Q.enq_batch q h a);
    deq_batch_into = (fun a ~default -> Q.deq_batch_into q h a ~default);
    length = (fun () -> Q.approx_length q);
  }

let adaptive_api ?(segment_shift = 2) ?(max_garbage = 2) () =
  let module Q = Topology.Adaptive in
  let q = Q.create ~segment_shift ~max_garbage () in
  let h = Q.register q in
  {
    enq = (fun v -> Q.enqueue q h v);
    deq = (fun () -> Q.dequeue q h);
    deq_or = (fun d -> Q.dequeue_or q h d);
    enq_batch = (fun a -> Q.enq_batch q h a);
    deq_batch_into = (fun a ~default -> Q.deq_batch_into q h a ~default);
    length = (fun () -> Q.approx_length q);
  }

let variants =
  [
    ("spsc", fun () -> spsc_api ());
    ("mpsc", fun () -> mpsc_api ());
    ("spmc", fun () -> spmc_api ());
    ("adaptive", fun () -> adaptive_api ());
  ]

(* the same constructors at their default (CI alloc gate) geometry *)
let default_geometry_variants =
  let g = 10 and mg = 16 in
  [
    ("spsc", fun () -> spsc_api ~segment_shift:g ~max_garbage:mg ());
    ("mpsc", fun () -> mpsc_api ~segment_shift:g ~max_garbage:mg ());
    ("spmc", fun () -> spmc_api ~segment_shift:g ~max_garbage:mg ());
    ("adaptive", fun () -> adaptive_api ~segment_shift:g ~max_garbage:mg ());
  ]

let test_sequential_fifo () =
  (* 100 values through 4-cell segments: ~25 segment transitions per
     variant, so growth, linking and recycling all run *)
  List.iter
    (fun (name, api) ->
      let a = api () in
      for i = 1 to 100 do
        a.enq i
      done;
      check Alcotest.int (name ^ ": length") 100 (a.length ());
      for i = 1 to 100 do
        check Alcotest.(option int) (Printf.sprintf "%s: value %d" name i) (Some i) (a.deq ())
      done;
      check Alcotest.(option int) (name ^ ": drained") None (a.deq ());
      check Alcotest.int (name ^ ": empty dequeue_or") min_int (a.deq_or min_int);
      check Alcotest.int (name ^ ": length drained") 0 (a.length ()))
    variants

let test_interleaved_enq_deq () =
  (* alternating single ops: the head chases the tail across segment
     boundaries, the recycle-behind-the-walker path *)
  List.iter
    (fun (name, api) ->
      let a = api () in
      for i = 1 to 200 do
        a.enq i;
        a.enq (1000 + i);
        check Alcotest.int (Printf.sprintf "%s: chase %d" name i) i (a.deq_or min_int);
        check Alcotest.int (Printf.sprintf "%s: chase %d'" name i) (1000 + i) (a.deq_or min_int)
      done)
    variants

let test_batch_into_semantics () =
  List.iter
    (fun (name, api) ->
      let a = api () in
      a.enq_batch [| 1; 2; 3; 4; 5 |];
      let out = Array.make 3 0 in
      check Alcotest.int (name ^ ": full buffer") 3 (a.deq_batch_into out ~default:(-1));
      check Alcotest.(array int) (name ^ ": first three") [| 1; 2; 3 |] out;
      let out = Array.make 4 0 in
      (* only two left: count is 2 and the tail is default-filled *)
      check Alcotest.int (name ^ ": partial") 2 (a.deq_batch_into out ~default:(-1));
      check Alcotest.(array int) (name ^ ": tail default-filled") [| 4; 5; -1; -1 |] out;
      check Alcotest.int (name ^ ": empty") 0 (a.deq_batch_into out ~default:(-7));
      check Alcotest.(array int) (name ^ ": all default") [| -7; -7; -7; -7 |] out)
    variants

let test_role_enforcement () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: second role claim should raise Invalid_argument" name
  in
  (* spsc: second producer and second consumer both rejected *)
  let module S = Topology.Spsc in
  let q = S.create () in
  let h1 = S.register q and h2 = S.register q in
  S.enqueue q h1 1;
  expect_invalid "spsc producer" (fun () -> S.enqueue q h2 2);
  ignore (S.dequeue q h1);
  expect_invalid "spsc consumer" (fun () -> S.dequeue q h2);
  (* mpsc: many producers fine, second consumer rejected *)
  let module M = Topology.Mpsc in
  let q = M.create () in
  let h1 = M.register q and h2 = M.register q in
  M.enqueue q h1 1;
  M.enqueue q h2 2;
  ignore (M.dequeue q h1);
  expect_invalid "mpsc consumer" (fun () -> M.dequeue q h2);
  (* spmc: many consumers fine, second producer rejected *)
  let module P = Topology.Spmc in
  let q = P.create () in
  let h1 = P.register q and h2 = P.register q in
  P.enqueue q h1 1;
  expect_invalid "spmc producer" (fun () -> P.enqueue q h2 2);
  ignore (P.dequeue q h1);
  ignore (P.dequeue q h2)

let test_role_release_on_retire () =
  (* retiring a handle frees its role seat for a successor — the
     property the post-storm drain and the adaptive switch rely on *)
  let module S = Topology.Spsc in
  let q = S.create () in
  let h1 = S.register q in
  S.enqueue q h1 1;
  S.retire q h1;
  let h2 = S.register q in
  S.enqueue q h2 2;
  check Alcotest.(option int) "successor produces" (Some 1) (S.dequeue q h2);
  check Alcotest.(option int) "fifo intact" (Some 2) (S.dequeue q h2)

let test_build_matrix () =
  check Alcotest.bool "spsc production inert" false Topology.Spsc.injector_enabled;
  check Alcotest.bool "mpsc production inert" false Topology.Mpsc.injector_enabled;
  check Alcotest.bool "spmc production inert" false Topology.Spmc.injector_enabled;
  check Alcotest.bool "adaptive production inert" false Topology.Adaptive.injector_enabled;
  check Alcotest.bool "spsc production unprobed" false Topology.Spsc.probe_enabled;
  check Alcotest.bool "adaptive production unprobed" false Topology.Adaptive.probe_enabled;
  check Alcotest.bool "spsc storm build armed" true Topology.Spsc_inject.injector_enabled;
  check Alcotest.bool "mpsc storm build armed" true Topology.Mpsc_inject.injector_enabled;
  check Alcotest.bool "spmc storm build armed" true Topology.Spmc_inject.injector_enabled;
  check Alcotest.bool "adaptive storm build armed" true Topology.Adaptive_inject.injector_enabled

let test_hot_path_allocation_free () =
  (* steady state after warm-up (pool populated): a pair of ops must
     allocate nothing.  Measured at the DEFAULT geometry (the CI alloc
     gate's configuration): the tiny 4-cell segments the other tests
     use cross a segment every 4 ops, so their per-crossing costs
     (fresh [End] stamp, pool cons) cannot amortize under the bound *)
  List.iter
    (fun (name, api) ->
      let a = api () in
      for i = 1 to 20_000 do
        a.enq i;
        ignore (a.deq_or min_int)
      done;
      let pairs = 5_000 in
      let w0 = Gc.minor_words () in
      for i = 1 to pairs do
        a.enq i;
        ignore (a.deq_or min_int)
      done;
      let per_op = (Gc.minor_words () -. w0) /. float_of_int (2 * pairs) in
      if per_op > 0.5 then
        Alcotest.failf "%s: %.3f words/op allocated on the steady-state hot path" name per_op)
    default_geometry_variants

(* ------------------------------------------------------------------ *)
(* Linearizability on the deterministic scheduler                     *)

(* Record one schedule's history with the sim's logical clock and
   check it with WGL.  [make] builds fresh fibers per schedule. *)
let explore_linearizable name ?(max_schedules = 100_000) ?(preemptions = 2) make =
  let events = ref [] in
  let record thread input f =
    let inv = Sim.now () in
    let output = f () in
    let res = Sim.now () in
    events := { H.thread; input; output; inv; res } :: !events
  in
  let schedules = ref 0 in
  let result =
    Sim.explore ~max_schedules ~preemptions
      ~make_fibers:(fun () ->
        events := [];
        make record)
      ~check:(fun () ->
        incr schedules;
        let evs = Array.of_list (List.rev !events) in
        Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
        match Wgl.check evs with
        | Wgl.Linearizable _ -> ()
        | Wgl.Not_linearizable ->
          Alcotest.failf "%s: non-linearizable schedule #%d" name !schedules
        | Wgl.Too_large -> Alcotest.failf "%s: history too large for WGL" name)
      ()
  in
  if result.Sim.truncated_runs > 0 then
    Alcotest.failf "%s: %d truncated schedules (unexpected spin)" name result.Sim.truncated_runs;
  if result.Sim.schedules = 0 then Alcotest.failf "%s: no schedules explored" name

let test_spsc_explore () =
  explore_linearizable "spsc" (fun record ->
      let module Q = Sim.Spsc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let hp = Q.register q and hc = Q.register q in
      let producer () =
        for i = 1 to 3 do
          record 0 (Spec.Enq i) (fun () ->
              Q.enqueue q hp i;
              Spec.Accepted)
        done
      in
      let consumer () =
        for _ = 1 to 3 do
          record 1 Spec.Deq (fun () ->
              match Q.dequeue q hc with Some v -> Spec.Got v | None -> Spec.Empty)
        done
      in
      [| producer; consumer |])

let test_mpsc_explore () =
  explore_linearizable "mpsc" (fun record ->
      let module Q = Sim.Mpsc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let h = Array.init 3 (fun _ -> Q.register q) in
      let producer t () =
        for i = 1 to 2 do
          record t (Spec.Enq ((t * 100) + i)) (fun () ->
              Q.enqueue q h.(t) ((t * 100) + i);
              Spec.Accepted)
        done
      in
      let consumer () =
        for _ = 1 to 4 do
          record 2 Spec.Deq (fun () ->
              match Q.dequeue q h.(2) with Some v -> Spec.Got v | None -> Spec.Empty)
        done
      in
      [| producer 0; producer 1; consumer |])

let test_spmc_explore () =
  explore_linearizable "spmc" (fun record ->
      let module Q = Sim.Spmc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let h = Array.init 3 (fun _ -> Q.register q) in
      let producer () =
        for i = 1 to 4 do
          record 0 (Spec.Enq i) (fun () ->
              Q.enqueue q h.(0) i;
              Spec.Accepted)
        done
      in
      let consumer t () =
        for _ = 1 to 2 do
          record t Spec.Deq (fun () ->
              match Q.dequeue q h.(t) with Some v -> Spec.Got v | None -> Spec.Empty)
        done
      in
      [| producer; consumer 1; consumer 2 |])

(* Wider histories under random schedules: less systematic, far more
   operations per run, covering segment churn the short exploration
   histories cannot reach. *)
let sweep_linearizable name ~seeds make =
  for seed = 1 to seeds do
    let events = ref [] in
    let record thread input f =
      let inv = Sim.now () in
      let output = f () in
      let res = Sim.now () in
      events := { H.thread; input; output; inv; res } :: !events
    in
    ignore (run_ok ~seed (make record));
    let evs = Array.of_list (List.rev !events) in
    Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
    match Wgl.check evs with
    | Wgl.Linearizable _ -> ()
    | Wgl.Not_linearizable -> Alcotest.failf "%s: non-linearizable history (seed %d)" name seed
    | Wgl.Too_large -> Alcotest.failf "%s: history too large (seed %d)" name seed
  done

let test_spsc_sweep () =
  sweep_linearizable "spsc" ~seeds:500 (fun record ->
      let module Q = Sim.Spsc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let hp = Q.register q and hc = Q.register q in
      [|
        (fun () ->
          for i = 1 to 4 do
            record 0 (Spec.Enq i) (fun () ->
                Q.enqueue q hp i;
                Spec.Accepted)
          done);
        (fun () ->
          for _ = 1 to 4 do
            record 1 Spec.Deq (fun () ->
                match Q.dequeue q hc with Some v -> Spec.Got v | None -> Spec.Empty)
          done);
      |])

let test_mpsc_sweep () =
  sweep_linearizable "mpsc" ~seeds:500 (fun record ->
      let module Q = Sim.Mpsc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let h = Array.init 4 (fun _ -> Q.register q) in
      let producer t () =
        for i = 1 to 3 do
          record t (Spec.Enq ((t * 100) + i)) (fun () ->
              Q.enqueue q h.(t) ((t * 100) + i);
              Spec.Accepted)
        done
      in
      [|
        producer 0;
        producer 1;
        producer 2;
        (fun () ->
          for _ = 1 to 9 do
            record 3 Spec.Deq (fun () ->
                match Q.dequeue q h.(3) with Some v -> Spec.Got v | None -> Spec.Empty)
          done);
      |])

let test_spmc_sweep () =
  sweep_linearizable "spmc" ~seeds:500 (fun record ->
      let module Q = Sim.Spmc in
      let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
      let h = Array.init 4 (fun _ -> Q.register q) in
      let consumer t () =
        for _ = 1 to 3 do
          record t Spec.Deq (fun () ->
              match Q.dequeue q h.(t) with Some v -> Spec.Got v | None -> Spec.Empty)
        done
      in
      [|
        (fun () ->
          for i = 1 to 9 do
            record 0 (Spec.Enq i) (fun () ->
                Q.enqueue q h.(0) i;
                Spec.Accepted)
          done);
        consumer 1;
        consumer 2;
        consumer 3;
      |])

(* ------------------------------------------------------------------ *)
(* The adaptive degrade protocol                                      *)

let test_adaptive_mode_lattice () =
  (* producers path: spsc -> mpsc -> general, values conserved in FIFO
     order across both drain-then-switch transitions *)
  let module Q = Topology.Adaptive in
  let q = Q.create ~segment_shift:2 () in
  let h1 = Q.register q in
  check Alcotest.string "starts spsc" "spsc" (Q.mode q);
  for i = 1 to 5 do
    Q.enqueue q h1 i
  done;
  check Alcotest.string "single producer stays spsc" "spsc" (Q.mode q);
  let h2 = Q.register q in
  Q.enqueue q h2 6;
  check Alcotest.string "second producer degrades to mpsc" "mpsc" (Q.mode q);
  check Alcotest.int "one switch" 1 (Q.switches q);
  check Alcotest.(option int) "fifo across switch" (Some 1) (Q.dequeue q h1);
  (match Q.dequeue q h2 with
  | Some 2 -> ()
  | other ->
    Alcotest.failf "second consumer should get 2, got %s"
      (match other with Some v -> string_of_int v | None -> "EMPTY"));
  check Alcotest.string "second consumer degrades to general" "general" (Q.mode q);
  check Alcotest.int "two switches" 2 (Q.switches q);
  let rest = List.init 4 (fun _ -> Q.dequeue q h1) in
  check
    Alcotest.(list (option int))
    "remaining fifo intact"
    [ Some 3; Some 4; Some 5; Some 6 ]
    rest;
  check Alcotest.(option int) "drained" None (Q.dequeue q h1);
  (* the lattice is monotone: no further switches ever *)
  Q.enqueue q h1 7;
  check Alcotest.int "no switch back" 2 (Q.switches q)

let test_adaptive_spmc_path () =
  (* consumers path: spsc -> spmc -> general *)
  let module Q = Topology.Adaptive in
  let q = Q.create () in
  let h1 = Q.register q in
  Q.enqueue q h1 1;
  Q.enqueue q h1 2;
  ignore (Q.dequeue q h1);
  check Alcotest.string "still spsc" "spsc" (Q.mode q);
  let h2 = Q.register q in
  check Alcotest.(option int) "second consumer gets next" (Some 2) (Q.dequeue q h2);
  check Alcotest.string "degrades to spmc" "spmc" (Q.mode q);
  Q.enqueue q h2 3;
  check Alcotest.string "second producer degrades to general" "general" (Q.mode q);
  check Alcotest.(option int) "value survives" (Some 3) (Q.dequeue q h1)

let test_adaptive_degrade_sweep () =
  (* the switch raced by concurrent fibers, 300 random schedules: two
     producers force spsc->mpsc mid-stream while a consumer dequeues;
     conservation and per-producer order must hold across the drain *)
  for seed = 1 to 300 do
    let module Q = Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let got = ref [] in
    let producer t () =
      for i = 1 to 5 do
        Q.enqueue q h.(t) ((t * 100) + i)
      done
    in
    let consumer () =
      for _ = 1 to 10 do
        match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
      done
    in
    ignore (run_ok ~seed [| producer 0; producer 1; consumer |]);
    let rec drain acc =
      match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc
    in
    let all = !got @ drain [] in
    check
      Alcotest.(list int)
      (Printf.sprintf "seed %d: conservation" seed)
      (List.sort compare (List.init 5 (fun i -> i + 1) @ List.init 5 (fun i -> 100 + i + 1)))
      (List.sort compare all);
    (* per-producer FIFO: each producer's values must come out in
       enqueue order even when the switch drains mid-stream *)
    let order t =
      let mine = List.filter (fun v -> v / 100 = t) (List.rev !got @ List.rev (drain [])) in
      let rec ascending = function
        | a :: (b :: _ as tl) -> a < b && ascending tl
        | _ -> true
      in
      ascending mine
    in
    check Alcotest.bool (Printf.sprintf "seed %d: producer 0 order" seed) true (order 0);
    check Alcotest.bool (Printf.sprintf "seed %d: producer 1 order" seed) true (order 1);
    check Alcotest.bool
      (Printf.sprintf "seed %d: degraded at least once" seed)
      true
      (Q.switches q >= 1)
  done

let test_adaptive_full_degrade_sweep () =
  (* both role axes exceeded concurrently: must land on the general
     backend with everything conserved *)
  for seed = 1 to 200 do
    let module Q = Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let got = ref [] in
    let take hi = match Q.dequeue q h.(hi) with Some v -> got := v :: !got | None -> () in
    let f0 () =
      for i = 1 to 4 do
        Q.enqueue q h.(0) i
      done;
      take 0
    in
    let f1 () =
      for i = 1 to 4 do
        Q.enqueue q h.(1) (100 + i)
      done;
      take 1
    in
    let f2 () =
      for _ = 1 to 6 do
        take 2
      done
    in
    ignore (run_ok ~seed [| f0; f1; f2 |]);
    let rec drain acc =
      match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc
    in
    let all = !got @ drain [] in
    check
      Alcotest.(list int)
      (Printf.sprintf "seed %d: conservation" seed)
      (List.sort compare (List.init 4 (fun i -> i + 1) @ List.init 4 (fun i -> 100 + i + 1)))
      (List.sort compare all);
    check Alcotest.string (Printf.sprintf "seed %d: fully degraded" seed) "general" (Q.mode q)
  done

let test_adaptive_post_switch_explore () =
  (* the switch itself needs fibers to wait out the drain, which the
     systematic explorer cannot schedule past its preemption bound —
     so degrade to the general backend sequentially (outside the
     scheduler), then exhaustively explore concurrent dispatch on the
     degraded queue: registration epochs, re-registration of stale
     sub-handles and the general-queue hot path through the adaptive
     indirection *)
  explore_linearizable "adaptive post-switch" (fun record ->
      let module Q = Sim.Adaptive_queue in
      let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
      let h = Array.init 2 (fun _ -> Q.register q) in
      Q.enqueue q h.(0) 900;
      Q.enqueue q h.(1) 901;
      ignore (Q.dequeue q h.(0));
      ignore (Q.dequeue q h.(1));
      if Q.mode q <> "general" then Alcotest.fail "setup should degrade to general";
      let actor t () =
        for i = 1 to 2 do
          record t (Spec.Enq ((t * 100) + i)) (fun () ->
              Q.enqueue q h.(t) ((t * 100) + i);
              Spec.Accepted)
        done;
        record t Spec.Deq (fun () ->
            match Q.dequeue q h.(t) with Some v -> Spec.Got v | None -> Spec.Empty)
      in
      [| actor 0; actor 1 |])

(* ------------------------------------------------------------------ *)
(* The adaptive router                                                *)

let test_adaptive_router_roundtrip () =
  let module R = Shard.Adaptive in
  let t = R.create ~shards:2 () in
  let h = R.register t in
  for i = 1 to 50 do
    R.enqueue t h i
  done;
  let got = ref [] in
  let rec go () =
    match R.dequeue t h with
    | Some v ->
      got := v :: !got;
      go ()
    | None -> ()
  in
  go ();
  check
    Alcotest.(list int)
    "router conserves across adaptive shards"
    (List.init 50 (fun i -> i + 1))
    (List.sort compare !got);
  (* the batch-into path through the router *)
  R.enq_batch t h (Array.init 10 (fun i -> 200 + i));
  let out = Array.make 16 0 in
  let n = R.deq_batch_into t h out ~default:(-1) in
  let taken = Array.to_list (Array.sub out 0 n) in
  let rest = ref [] in
  let rec go2 () =
    match R.dequeue t h with
    | Some v ->
      rest := v :: !rest;
      go2 ()
    | None -> ()
  in
  go2 ();
  check
    Alcotest.(list int)
    "batch-into + drain conserve"
    (List.init 10 (fun i -> 200 + i))
    (List.sort compare (taken @ !rest))

let test_adaptive_router_concurrent () =
  (* hardware-domain smoke: 4 domains churning pairs through adaptive
     shards (forcing degrades under real parallelism), conservation
     audited *)
  let module R = Shard.Adaptive in
  let t = R.create ~shards:2 () in
  let threads = 4 and ops = 5_000 in
  let got = Array.init threads (fun _ -> ref []) in
  let barrier = Sync.Barrier.create threads in
  let domains =
    List.init threads (fun d ->
        Domain.spawn (fun () ->
            let h = R.register t in
            Sync.Barrier.await barrier;
            for i = 0 to ops - 1 do
              R.enqueue t h ((d * ops) + i);
              match R.dequeue t h with Some v -> got.(d) := v :: !(got.(d)) | None -> ()
            done;
            R.retire t h))
  in
  List.iter Domain.join domains;
  let h = R.register t in
  let rec drain acc = match R.dequeue t h with Some v -> drain (v :: acc) | None -> acc in
  let all = List.concat_map (fun r -> !r) (Array.to_list got) @ drain [] in
  check Alcotest.int "nothing lost or duplicated" (threads * ops) (List.length all);
  let sorted = List.sort compare all in
  check
    Alcotest.(list int)
    "exact multiset"
    (List.init (threads * ops) Fun.id)
    sorted

(* ------------------------------------------------------------------ *)
(* Regression (PR 9): the Segs release path under double release      *)

(* The scenario behind the [pool_push] CAS-claim: a drainer killed in
   the [Topo_switch_draining] window after handing its detached
   segment to the pool, whose segment the switch epilogue then
   releases again.  With a blind [Recycled] store the second push
   inserts the segment into the pool twice and two acquirers each get
   it — one physical segment spliced into two chains.  The claim makes
   the second releaser find [Recycled] already in place and back off.
   Pin it directly on [Segs] over the deterministic scheduler: two
   releaser fibers race full double releases of the same detached
   segments; afterwards every pool entry must be physically distinct
   and no segment may be pooled twice. *)

let test_segs_double_release_explore () =
  let module Segs = Topology.Segs.Make (Sim.Atomic_shim) in
  for seed = 1 to 300 do
    let t = Segs.make ~size:2 ~pool_limit:16 ~pool_enabled:true in
    (* detached segments, exactly as a drainer holds them between the
       unlink and the push *)
    let segs = Array.init 3 (fun i -> Segs.alloc_seg ~size:2 ~base:(16 * (i + 1))) in
    let releaser () = Array.iter (fun s -> Segs.pool_push t s) segs in
    ignore (run_ok ~seed [| releaser; releaser |]);
    let rec drain acc =
      match Segs.pool_pop t with Some s -> drain (s :: acc) | None -> acc
    in
    let pooled = drain [] in
    let rec dup_phys = function
      | [] -> false
      | s :: tl -> List.exists (fun s' -> s' == s) tl || dup_phys tl
    in
    if dup_phys pooled then
      Alcotest.failf "seed %d: a double-released segment entered the pool twice" seed;
    if List.length pooled > Array.length segs then
      Alcotest.failf "seed %d: pool grew past the released set (%d > %d)" seed
        (List.length pooled) (Array.length segs);
    (* a released-then-acquired segment is re-based for its new chain
       slot; a second acquire must never return the same block *)
    let a1 = Segs.acquire t ~base:1000 in
    let a2 = Segs.acquire t ~base:1002 in
    if a1 == a2 then Alcotest.failf "seed %d: one segment handed to two chains" seed
  done

(* The same invariant end-to-end: kill the switcher inside the
   [Topo_switch_draining] window (token held, old backend about to be
   drained into the new one) and check with the storms' conservation
   audit that the retry path keeps every committed value exactly once
   — a double-released segment would surface here as a duplicated or
   vanished value when its block lands in two chains. *)
let test_adaptive_switch_kill_storm () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Topo_switch_draining ]
        ~seed:(Int64.of_int ((seed * 6151) + 3))
        ()
    in
    let module Q = Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let committed = Array.make 3 0 and outcomes = Array.make 3 Harness.Storm.Completed in
    let got = ref [] in
    (* fiber 0 is the second producer: its first enqueue forces the
       spsc->mpsc switch, so it is usually the switcher the plan kills
       mid-drain *)
    let producer d () =
      try
        for i = 0 to 4 do
          Q.enqueue q h.(d) ((d * 5) + i);
          committed.(d) <- i + 1
        done
      with Inject.Killed p -> outcomes.(d) <- Harness.Storm.Killed p
    in
    let consumer () =
      for _ = 1 to 10 do
        match Q.dequeue q h.(2) with Some v -> got := v :: !got | None -> ()
      done
    in
    Harness.Storm.with_controller
      ~park:(fun _ -> ())
      ~victim:(fun () -> Sim.current_fiber () = 0)
      plan
      (fun () -> ignore (run_ok ~seed [| producer 0; producer 1; consumer |]));
    total_kills := !total_kills + (Inject.stats Inject.Topo_switch_draining).Inject.kills;
    let rec drain acc = match Q.dequeue q h.(2) with Some v -> drain (v :: acc) | None -> acc in
    match
      (Harness.Storm.audit ~ops:5 ~batch:1 ~committed ~outcomes (!got @ drain [])).violations
    with
    | [] -> ()
    | vs -> Alcotest.failf "seed %d: %s" seed (String.concat "; " vs)
  done;
  if !total_kills = 0 then
    Alcotest.fail "no Topo_switch_draining kill fired across 300 seeds — storm is dead code"

let () =
  Alcotest.run "topology"
    [
      ( "sequential",
        [
          Alcotest.test_case "fifo across segments, all variants" `Quick test_sequential_fifo;
          Alcotest.test_case "head chasing tail" `Quick test_interleaved_enq_deq;
          Alcotest.test_case "deq_batch_into semantics" `Quick test_batch_into_semantics;
          Alcotest.test_case "role enforcement" `Quick test_role_enforcement;
          Alcotest.test_case "retire releases role seats" `Quick test_role_release_on_retire;
          Alcotest.test_case "injector/probe build matrix" `Quick test_build_matrix;
          Alcotest.test_case "steady-state hot path allocation-free" `Quick
            test_hot_path_allocation_free;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "spsc: systematic exploration" `Quick test_spsc_explore;
          Alcotest.test_case "mpsc: systematic exploration" `Quick test_mpsc_explore;
          Alcotest.test_case "spmc: systematic exploration" `Quick test_spmc_explore;
          Alcotest.test_case "spsc: random-schedule sweep" `Quick test_spsc_sweep;
          Alcotest.test_case "mpsc: random-schedule sweep" `Quick test_mpsc_sweep;
          Alcotest.test_case "spmc: random-schedule sweep" `Quick test_spmc_sweep;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "mode lattice, producer path" `Quick test_adaptive_mode_lattice;
          Alcotest.test_case "mode lattice, consumer path" `Quick test_adaptive_spmc_path;
          Alcotest.test_case "mid-stream degrade sweep (conservation+order)" `Quick
            test_adaptive_degrade_sweep;
          Alcotest.test_case "dual-axis degrade sweep" `Quick test_adaptive_full_degrade_sweep;
          Alcotest.test_case "segs double-release exploration" `Quick
            test_segs_double_release_explore;
          Alcotest.test_case "mid-drain kill storm (conservation)" `Quick
            test_adaptive_switch_kill_storm;
          Alcotest.test_case "post-switch systematic exploration" `Quick
            test_adaptive_post_switch_explore;
        ] );
      ( "router",
        [
          Alcotest.test_case "adaptive shards roundtrip + batch-into" `Quick
            test_adaptive_router_roundtrip;
          Alcotest.test_case "4-domain adaptive router storm" `Quick test_adaptive_router_concurrent;
        ] );
    ]
