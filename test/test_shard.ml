(* The sharded router and the FAA-batched operations.

   Three layers of coverage:

   - direct batch-op semantics on the production queue (order,
     partial batches, ticket accounting via [Internal]);
   - router semantics on hardware atomics (conservation, bounded
     mode, rebalancing, snapshot folding);
   - the relaxed-FIFO contract under the deterministic scheduler:
     random interleavings of the simulated router checked against
     [Lincheck.Relaxed_fifo] for shards x batch sweeps, with the
     shards=1/batch=1 corner pinned to the strict-FIFO checker. *)

open Alcotest

module H = Lincheck.History
module Spec = Lincheck.Queue_spec
module Wgl = Lincheck.Wgl.Make (Lincheck.Queue_spec)
module Q = Wfq.Wfqueue
module Sim = Simsched.Sim
module SQ = Sim.Queue
module SR = Sim.Shard_router

(* ------------------------------------------------------------------ *)
(* Batch operations on the production queue                           *)

let test_batch_roundtrip () =
  let q = Q.create () in
  let h = Q.register q in
  Q.enq_batch q h [| 1; 2; 3; 4; 5 |];
  check int "length after batch" 5 (Q.approx_length q);
  let out = Q.deq_batch q h 5 in
  check (array (option int)) "FIFO cell order"
    [| Some 1; Some 2; Some 3; Some 4; Some 5 |]
    out;
  check (option int) "drained" None (Q.dequeue q h)

let test_batch_partial () =
  (* a k-batch against a shorter queue returns the values in order
     and EMPTY holes for the rest *)
  let q = Q.create () in
  let h = Q.register q in
  Q.enq_batch q h [| 10; 20 |];
  let out = Q.deq_batch q h 4 in
  check (array (option int)) "partial batch" [| Some 10; Some 20; None; None |] out

let test_batch_interleaves_with_singles () =
  let q = Q.create () in
  let h = Q.register q in
  Q.enqueue q h 1;
  Q.enq_batch q h [| 2; 3 |];
  Q.enqueue q h 4;
  check (option int) "single sees batch order" (Some 1) (Q.dequeue q h);
  check (array (option int)) "batch sees single order" [| Some 2; Some 3 |] (Q.deq_batch q h 2);
  check (option int) "tail value" (Some 4) (Q.dequeue q h)

let test_batch_empty_noops () =
  (* zero-size batches must not consume FAA tickets *)
  let q = Q.create () in
  let h = Q.register q in
  let t0 = Q.Internal.tail_index q and h0 = Q.Internal.head_index q in
  Q.enq_batch q h [||];
  check (array (option int)) "deq_batch 0" [||] (Q.deq_batch q h 0);
  check (array (option int)) "deq_batch negative" [||] (Q.deq_batch q h (-3));
  check int "tail ticket untouched" t0 (Q.Internal.tail_index q);
  check int "head ticket untouched" h0 (Q.Internal.head_index q)

let test_batch_one_faa_per_batch () =
  (* the amortization claim itself: k cells move T by k with one
     reservation, not k *)
  let q = Q.create () in
  let h = Q.register q in
  let t0 = Q.Internal.tail_index q in
  Q.enq_batch q h (Array.init 64 Fun.id);
  check int "tail moved by exactly k" (t0 + 64) (Q.Internal.tail_index q);
  let h0 = Q.Internal.head_index q in
  let out = Q.deq_batch q h 64 in
  check int "head moved by exactly k" (h0 + 64) (Q.Internal.head_index q);
  check int "all values out" 64
    (Array.fold_left (fun acc -> function Some _ -> acc + 1 | None -> acc) 0 out)

let test_batch_segment_crossing () =
  (* tiny segments force one batch to span several segment
     allocations *)
  let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
  let h = Q.register q in
  let n = 100 in
  Q.enq_batch q h (Array.init n Fun.id);
  let out = Q.deq_batch q h n in
  let got = Array.to_list out |> List.filter_map Fun.id in
  check (list int) "order across segments" (List.init n Fun.id) got

let test_batch_obs_counters () =
  (* the instrumented build records batch sizes; the production build
     compiles the event tier out *)
  let module O = Wfq.Wfqueue_obs in
  let q = O.create () in
  let h = O.register q in
  O.enq_batch q h [| 1; 2; 3 |];
  ignore (O.deq_batch q h 3);
  let s = O.stats q in
  check int "enq batches" 1 s.Obs.Counters.enq_batches;
  check int "enq batch cells" 3 s.Obs.Counters.enq_batch_cells;
  check int "deq batches" 1 s.Obs.Counters.deq_batches;
  check int "deq batch cells" 3 s.Obs.Counters.deq_batch_cells;
  check (float 0.01) "avg enq batch" 3.0 (Obs.Counters.avg_enq_batch s);
  (* production instantiation: event tier off *)
  let q = Q.create () in
  let h = Q.register q in
  Q.enq_batch q h [| 1; 2; 3 |];
  ignore (Q.deq_batch q h 3);
  let s = Q.stats q in
  check int "disabled probe records no batches" 0 s.Obs.Counters.enq_batches;
  check int "path tier still counted" 3 s.Obs.Counters.fast_enqueues

(* ------------------------------------------------------------------ *)
(* Router on hardware atomics                                         *)

module R = Shard.Wf

let test_router_conservation () =
  let t = R.create ~shards:4 ~rebalance_every:5 () in
  let h = R.register t in
  let n = 1000 in
  for v = 1 to n do
    R.enqueue t h v
  done;
  check int "approx_length sums shards" n (R.approx_length t);
  let got = ref [] in
  let rec drain () =
    match R.dequeue t h with
    | Some v ->
      got := v :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  check (list int) "multiset conserved" (List.init n (fun i -> i + 1))
    (List.sort compare !got);
  check (option int) "empty after drain" None (R.dequeue t h);
  R.retire t h

let test_router_batch_conservation () =
  let t = R.create ~shards:3 ~rebalance_every:2 () in
  let h = R.register t in
  let sent = ref [] in
  for b = 0 to 49 do
    let vs = Array.init 4 (fun j -> (b * 4) + j) in
    Array.iter (fun v -> sent := v :: !sent) vs;
    R.enq_batch t h vs
  done;
  let got = ref [] in
  let continue = ref true in
  while !continue do
    let out = R.deq_batch t h 4 in
    let values = Array.to_list out |> List.filter_map Fun.id in
    if values = [] then continue := false else got := values @ !got
  done;
  check (list int) "batch multiset conserved" (List.sort compare !sent)
    (List.sort compare !got);
  R.retire t h

let test_router_per_shard_fifo () =
  (* values routed to one shard come back in enqueue order even when
     dequeues rotate across shards *)
  let t = R.create ~shards:2 ~rebalance_every:1_000_000 () in
  let h = R.register t in
  let shard_of = Hashtbl.create 64 in
  for v = 1 to 200 do
    Hashtbl.replace shard_of v (R.enqueue' t h v)
  done;
  let last_seen = Hashtbl.create 4 in
  let rec drain () =
    match R.dequeue t h with
    | Some v ->
      let s = Hashtbl.find shard_of v in
      (match Hashtbl.find_opt last_seen s with
      | Some prev when prev > v -> failf "shard %d: %d dequeued after %d" s v prev
      | _ -> ());
      Hashtbl.replace last_seen s v;
      drain ()
    | None -> ()
  in
  drain ();
  R.retire t h

let test_router_rebalance () =
  let t = R.create ~shards:4 ~rebalance_every:10 () in
  let h = R.register t in
  for v = 1 to 200 do
    R.enqueue t h v
  done;
  check bool "rebalances happened" true (R.rebalances t > 0);
  (* all four shards saw traffic *)
  Array.iteri
    (fun i snap ->
      check bool
        (Printf.sprintf "shard %d saw enqueues" i)
        true
        (Obs.Counters.total_enqueues snap.Obs.Snapshot.ops > 0))
    (R.shard_snapshots t);
  R.retire t h

let test_router_bounded () =
  let t = R.create ~shards:2 ~capacity:4 ~rebalance_every:1_000_000 () in
  let h = R.register t in
  (* 8 = 2 shards x capacity 4 fit (capacity-forced rebalancing
     spreads them), the 9th must refuse *)
  for v = 1 to 8 do
    check bool (Printf.sprintf "value %d admitted" v) true (R.try_enqueue t h v)
  done;
  check bool "9th refused" false (R.try_enqueue t h 9);
  check bool "blocked counted" true (R.blocked t > 0);
  (match R.enqueue_exn t h 9 with
  | () -> fail "enqueue_exn should raise"
  | exception R.Would_block -> ());
  (* batch admission: no room for 3 anywhere, room after a drain *)
  check bool "batch refused" false (R.try_enq_batch t h [| 10; 11; 12 |]);
  (match R.dequeue t h with Some _ -> () | None -> fail "bounded queue not empty");
  check bool "room after dequeue" true (R.try_enqueue t h 9);
  R.retire t h

let test_router_unbounded_never_blocks () =
  let t = R.create ~shards:2 () in
  let h = R.register t in
  for v = 1 to 100 do
    check bool "unbounded always admits" true (R.try_enqueue t h v)
  done;
  check int "no blocking recorded" 0 (R.blocked t);
  R.retire t h

let test_router_snapshot_fold () =
  let t = R.create ~shards:3 ~rebalance_every:7 () in
  let h = R.register t in
  for v = 1 to 90 do
    R.enqueue t h v
  done;
  let rec drain () = match R.dequeue t h with Some _ -> drain () | None -> () in
  drain ();
  let folded = R.snapshot t in
  let per_shard = R.shard_snapshots t in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per_shard in
  check int "folded enqueues"
    (sum (fun s -> Obs.Counters.total_enqueues s.Obs.Snapshot.ops))
    (Obs.Counters.total_enqueues folded.Obs.Snapshot.ops);
  check int "folded dequeues"
    (sum (fun s -> Obs.Counters.total_dequeues s.Obs.Snapshot.ops))
    (Obs.Counters.total_dequeues folded.Obs.Snapshot.ops);
  check int "folded live segments"
    (sum (fun s -> s.Obs.Snapshot.segments.live))
    folded.Obs.Snapshot.segments.live;
  R.retire t h

let test_registry_instances () =
  (* the Queues registry wires the new shapes into every bench/gate
     path; exercise each through the uniform ops record *)
  [ "wf-shard-2"; "wf-shard-8"; "wf-batch-8" ]
  |> List.iter (fun name ->
         match Harness.Queues.find name with
         | None -> failf "%s missing from registry" name
         | Some f ->
           let inst = f.Harness.Queues.make () in
           let ops = inst.Harness.Queues.register () in
           for v = 1 to 100 do
             ops.Harness.Queues.enqueue v
           done;
           let got = ref [] in
           let rec drain () =
             match ops.Harness.Queues.dequeue () with
             | Some v ->
               got := v :: !got;
               drain ()
             | None -> ()
           in
           drain ();
           check (list int)
             (Printf.sprintf "%s conserves" name)
             (List.init 100 (fun i -> i + 1))
             (List.sort compare !got);
           ops.Harness.Queues.release ();
           (match inst.Harness.Queues.snapshot () with
           | Some snap ->
             check bool
               (Printf.sprintf "%s snapshot counts ops" name)
               true
               (Obs.Counters.total_enqueues snap.Obs.Snapshot.ops >= 100)
           | None -> failf "%s should expose a snapshot" name))

(* ------------------------------------------------------------------ *)
(* The relaxed-FIFO checker itself (synthetic histories)              *)

let ev thread input output inv res = { H.thread; input; output; inv; res }

let test_checker_catches_shard_fifo_violation () =
  (* both values on shard 0, dequeued inverted with disjoint
     intervals: clause 1 must fire whatever d says *)
  let evs =
    [|
      ev 0 (Spec.Enq 1) Spec.Accepted 0 1;
      ev 0 (Spec.Enq 2) Spec.Accepted 2 3;
      ev 1 Spec.Deq (Spec.Got 2) 4 5;
      ev 1 Spec.Deq (Spec.Got 1) 6 7;
    |]
  in
  (match
     Lincheck.Relaxed_fifo.check ~shards:2 ~shard_of:(fun _ -> 0) ~d:100 evs
   with
  | Error (Lincheck.Relaxed_fifo.Shard_violation (0, _)) -> ()
  | Error v ->
    failf "wrong violation: %s" (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation v)
  | Ok () -> fail "inversion not caught");
  (* same history is fine when the values live on different shards
     and d allows one overtake *)
  match
    Lincheck.Relaxed_fifo.check ~shards:2 ~shard_of:(fun v -> v land 1) ~d:1 evs
  with
  | Ok () -> ()
  | Error v -> failf "spurious: %s" (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation v)

let test_checker_overtake_bound () =
  (* value 1 (shard 0) overtaken by 2 and 3 (shard 1): count 2 *)
  let evs =
    [|
      ev 0 (Spec.Enq 1) Spec.Accepted 0 1;
      ev 0 (Spec.Enq 2) Spec.Accepted 2 3;
      ev 0 (Spec.Enq 3) Spec.Accepted 4 5;
      ev 1 Spec.Deq (Spec.Got 2) 6 7;
      ev 1 Spec.Deq (Spec.Got 3) 8 9;
      ev 1 Spec.Deq (Spec.Got 1) 10 11;
    |]
  in
  let shard_of v = if v = 1 then 0 else 1 in
  (match Lincheck.Relaxed_fifo.check ~shards:2 ~shard_of ~d:1 evs with
  | Error (Lincheck.Relaxed_fifo.Overtaken { value = 1; count = 2; bound = 1 }) -> ()
  | Error v -> failf "wrong violation: %s" (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation v)
  | Ok () -> fail "overtake not counted");
  match Lincheck.Relaxed_fifo.check ~shards:2 ~shard_of ~d:2 evs with
  | Ok () -> ()
  | Error v -> failf "d=2 should pass: %s" (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation v)

let test_checker_empty_respects_shards () =
  (* an EMPTY while shard 1 provably held a value refutes the router
     contract even though shard 0 was empty *)
  let evs =
    [|
      ev 0 (Spec.Enq 1) Spec.Accepted 0 1;
      ev 1 Spec.Deq Spec.Empty 2 3;
      ev 1 Spec.Deq (Spec.Got 1) 4 5;
    |]
  in
  match Lincheck.Relaxed_fifo.check ~shards:2 ~shard_of:(fun _ -> 1) ~d:0 evs with
  | Error (Lincheck.Relaxed_fifo.Shard_violation (1, Lincheck.Fast_fifo.Vacuous_empty 1)) -> ()
  | Error v -> failf "wrong violation: %s" (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation v)
  | Ok () -> fail "vacuous EMPTY not caught"

(* ------------------------------------------------------------------ *)
(* Relaxed-FIFO sweeps under the deterministic scheduler              *)

(* Random interleavings of P producer and C consumer fibers over the
   simulated router; the history is checked against the d-bounded
   contract with depth = the largest per-shard routed count (a sound
   backlog bound for any interleaving). *)
let sweep_router ~shards ~batch ~seeds () =
  let producers = 2 and consumers = 2 in
  let per_producer = 12 in
  for seed = 1 to seeds do
    let t =
      SR.create ~shards ~rebalance_every:5 ~patience:1 ~segment_shift:1 ~max_garbage:2 ()
    in
    let handles = Array.init (producers + consumers) (fun _ -> SR.register t) in
    let events = ref [] in
    let shard_of_value = Hashtbl.create 64 in
    let record thread input f =
      let inv = Sim.now () in
      let output = f () in
      let res = Sim.now () in
      events := { H.thread; input; output; inv; res } :: !events
    in
    let producer p () =
      let h = handles.(p) in
      let next = ref 0 in
      while !next < per_producer do
        let k = min batch (per_producer - !next) in
        let vs = Array.init k (fun j -> (p * 1000) + !next + j) in
        next := !next + k;
        if k = 1 then begin
          let v = vs.(0) in
          record p (Spec.Enq v) (fun () ->
              let s = SR.enqueue' t h v in
              Hashtbl.replace shard_of_value v s;
              Spec.Accepted)
        end
        else begin
          (* a batch expands to one event per value sharing the
             call's interval: the batch is not atomic, each value is
             its own operation linearized somewhere inside *)
          let inv = Sim.now () in
          let s = SR.enq_batch' t h vs in
          let res = Sim.now () in
          Array.iter
            (fun v ->
              Hashtbl.replace shard_of_value v s;
              events := { H.thread = p; input = Spec.Enq v; output = Spec.Accepted; inv; res } :: !events)
            vs
        end
      done
    in
    let consumer c () =
      let h = handles.(producers + c) in
      let budget = ref ((producers * per_producer) / consumers) in
      while !budget > 0 do
        if batch = 1 then
          record (producers + c) Spec.Deq (fun () ->
              match SR.dequeue t h with
              | Some v ->
                decr budget;
                Spec.Got v
              | None ->
                decr budget;
                Spec.Empty)
        else begin
          let inv = Sim.now () in
          let out = SR.deq_batch t h batch in
          let res = Sim.now () in
          let got = Array.to_list out |> List.filter_map Fun.id in
          if got = [] then begin
            decr budget;
            events :=
              { H.thread = producers + c; input = Spec.Deq; output = Spec.Empty; inv; res }
              :: !events
          end
          else
            List.iter
              (fun v ->
                decr budget;
                events :=
                  { H.thread = producers + c; input = Spec.Deq; output = Spec.Got v; inv; res }
                  :: !events)
              got
        end
      done;
      (* drain what the budgeted loop left behind so [complete]
         conservation holds *)
      ()
    in
    let fibers =
      Array.init (producers + consumers) (fun i ->
          if i < producers then producer i else consumer (i - producers))
    in
    let stats = Sim.run ~seed:(Int64.of_int seed) fibers in
    if stats.Sim.max_steps_hit then failf "seed %d: hit step bound" seed;
    (* post-run drain (outside the scheduler): anything left in the
       router *)
    let h = handles.(0) in
    let rec drain () =
      match SR.dequeue t h with
      | Some v ->
        let tnow = Sim.now () in
        events :=
          { H.thread = 0; input = Spec.Deq; output = Spec.Got v; inv = tnow + 1; res = tnow + 2 }
          :: !events;
        drain ()
      | None -> ()
    in
    drain ();
    let evs = Array.of_list (List.rev !events) in
    Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
    (* depth bound: the largest number of values any one shard
       received over the whole run *)
    let counts = Array.make shards 0 in
    Hashtbl.iter (fun _ s -> counts.(s) <- counts.(s) + 1) shard_of_value;
    let depth = Array.fold_left max 1 counts in
    let d =
      if shards = 1 then 0 else (shards - 1) * (depth + ((consumers + 1) * max 1 batch))
    in
    let shard_of v =
      match Hashtbl.find_opt shard_of_value v with Some s -> s | None -> 0
    in
    match Lincheck.Relaxed_fifo.check ~complete:true ~shards ~shard_of ~d evs with
    | Ok () -> ()
    | Error viol ->
      failf "shards=%d batch=%d seed %d: %s" shards batch seed
        (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation viol)
  done

let test_sweep_matrix () =
  (* the acceptance matrix: shards x batch *)
  List.iter
    (fun shards -> List.iter (fun batch -> sweep_router ~shards ~batch ~seeds:150 ()) [ 1; 4 ])
    [ 1; 2; 4 ]

let test_strict_reduction () =
  (* shards=1, batch=1: the relaxed checker with d=0 must agree with
     the strict-FIFO checker on the same histories, and the histories
     must additionally be WGL-linearizable (batch=1 single-queue runs
     are plain queue histories) *)
  for seed = 1 to 200 do
    let t = SR.create ~shards:1 ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let handles = Array.init 3 (fun _ -> SR.register t) in
    let events = ref [] in
    let record thread input f =
      let inv = Sim.now () in
      let output = f () in
      let res = Sim.now () in
      events := { H.thread; input; output; inv; res } :: !events
    in
    let fiber i () =
      let h = handles.(i) in
      let rng = Primitives.Splitmix64.create (Int64.of_int ((seed * 31) + i)) in
      for n = 0 to 2 do
        if Primitives.Splitmix64.bool rng then
          record i (Spec.Enq ((i * 100) + n)) (fun () ->
              SR.enqueue t h ((i * 100) + n);
              Spec.Accepted)
        else
          record i Spec.Deq (fun () ->
              match SR.dequeue t h with Some v -> Spec.Got v | None -> Spec.Empty)
      done
    in
    let stats = Sim.run ~seed:(Int64.of_int seed) [| fiber 0; fiber 1; fiber 2 |] in
    if stats.Sim.max_steps_hit then failf "seed %d: hit step bound" seed;
    let evs = Array.of_list (List.rev !events) in
    Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
    (match Lincheck.Relaxed_fifo.check ~shards:1 ~shard_of:(fun _ -> 0) ~d:0 evs with
    | Ok () -> ()
    | Error viol ->
      failf "seed %d: strict reduction failed: %s" seed
        (Format.asprintf "%a" Lincheck.Relaxed_fifo.pp_violation viol));
    (match Lincheck.Fast_fifo.check evs with
    | Ok () -> ()
    | Error viol ->
      failf "seed %d: fast_fifo disagrees: %s" seed
        (Format.asprintf "%a" Lincheck.Fast_fifo.pp_violation viol));
    match Wgl.check evs with
    | Wgl.Linearizable _ -> ()
    | Wgl.Not_linearizable -> failf "seed %d: not linearizable" seed
    | Wgl.Too_large -> fail "history too large"
  done

(* Batch ops on a single simulated queue, checked as full
   linearizability: the expansion of each batch into per-value events
   sharing the interval must admit a legal sequential witness. *)
let test_batch_linearizable_sweep () =
  for seed = 1 to 400 do
    let q = SQ.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let handles = Array.init 2 (fun _ -> SQ.register q) in
    let events = ref [] in
    let fiber i () =
      let h = handles.(i) in
      let rng = Primitives.Splitmix64.create (Int64.of_int ((seed * 77) + i)) in
      for n = 0 to 1 do
        let k = 1 + Primitives.Splitmix64.next_int rng 3 in
        if Primitives.Splitmix64.bool rng then begin
          let vs = Array.init k (fun j -> (i * 100) + (n * 10) + j) in
          let inv = Sim.now () in
          SQ.enq_batch q h vs;
          let res = Sim.now () in
          Array.iter
            (fun v ->
              events :=
                { H.thread = i; input = Spec.Enq v; output = Spec.Accepted; inv; res }
                :: !events)
            vs
        end
        else begin
          let inv = Sim.now () in
          let out = SQ.deq_batch q h k in
          let res = Sim.now () in
          Array.iter
            (fun slot ->
              let output = match slot with Some v -> Spec.Got v | None -> Spec.Empty in
              events := { H.thread = i; input = Spec.Deq; output; inv; res } :: !events)
            out
        end
      done
    in
    let stats = Sim.run ~seed:(Int64.of_int seed) [| fiber 0; fiber 1 |] in
    if stats.Sim.max_steps_hit then failf "seed %d: hit step bound" seed;
    let evs = Array.of_list (List.rev !events) in
    Array.sort (fun a b -> compare a.H.inv b.H.inv) evs;
    match Wgl.check evs with
    | Wgl.Linearizable _ -> ()
    | Wgl.Not_linearizable -> failf "seed %d: batch history not linearizable" seed
    | Wgl.Too_large -> failf "seed %d: history too large for WGL" seed
  done

(* ------------------------------------------------------------------ *)
(* Regression (PR 9): enqueue-side kills vs the missing-value bound.

   A bounded router refuses a batch with {e no} queue footprint
   ([try_enq_batch] = false / [Would_block]).  When that same producer
   is later killed inside the [Enq_batch_after_faa] window — batch
   tickets drawn, no cell filled yet — only that one in-flight batch
   may strand.  [Harness.Storm.audit], the rule every storm applies,
   gives enqueue-side kills {e zero} missing-value allowance: every
   batch whose enqueue returned must still be fully dequeued, and a
   rejected-then-killed producer must not be double-counted (the
   rejection left nothing behind; the kill strands at most [batch]
   uncommitted values).  This test runs that audit under the
   deterministic scheduler. *)

let test_bounded_enq_kill_accounting () =
  let batch = 3 in
  let per_producer = 12 in
  let total_kills = ref 0 in
  let total_rejections = ref 0 in
  for seed = 1 to 200 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Enq_batch_after_faa ]
        ~seed:(Int64.of_int ((seed * 7919) + 17))
        ()
    in
    (* capacity 6 per shard against 24 values keeps real rejection
       pressure on both producers while the consumer drains *)
    let t =
      SR.create ~shards:2 ~capacity:6 ~rebalance_every:5 ~patience:1 ~segment_shift:1
        ~max_garbage:2 ()
    in
    let h = Array.init 3 (fun _ -> SR.register t) in
    let committed = Array.make 3 0 and outcomes = Array.make 3 Harness.Storm.Completed in
    let got = ref [] in
    let producers_done = ref 0 in
    let produce d () =
      (try
         while committed.(d) < per_producer do
           let vs = Array.init batch (fun j -> (d * per_producer) + committed.(d) + j) in
           if SR.try_enq_batch t h.(d) vs then committed.(d) <- committed.(d) + batch
           else begin
             incr total_rejections;
             Sim.yield ()
           end
         done
       with Inject.Killed p -> outcomes.(d) <- Harness.Storm.Killed p);
      incr producers_done
    in
    let consumer () =
      let idle = ref 0 in
      while !producers_done < 2 || !idle < 3 do
        let before = List.length !got in
        Array.iter
          (function Some v -> got := v :: !got | None -> ())
          (SR.deq_batch t h.(2) batch);
        if List.length !got = before then incr idle else idle := 0
      done
    in
    Harness.Storm.with_controller
      ~park:(fun _ -> ())
      ~victim:(fun () -> Sim.current_fiber () = 0)
      plan
      (fun () ->
        let stats = Sim.run ~seed:(Int64.of_int seed) [| produce 0; produce 1; consumer |] in
        if stats.Sim.max_steps_hit then failf "seed %d: hit step bound" seed);
    total_kills := !total_kills + (Inject.stats Inject.Enq_batch_after_faa).Inject.kills;
    let rec drain () =
      match SR.dequeue t h.(2) with
      | Some v ->
        got := v :: !got;
        drain ()
      | None -> ()
    in
    drain ();
    match
      (Harness.Storm.audit ~ops:per_producer ~batch ~committed ~outcomes !got).violations
    with
    | [] -> ()
    | vs -> failf "seed %d: %s" seed (String.concat "; " vs)
  done;
  if !total_kills = 0 then
    fail "no Enq_batch_after_faa kill fired across 200 seeds — storm is dead code";
  if !total_rejections = 0 then
    fail "no bounded rejection fired across 200 seeds — capacity pressure is dead code"

let () =
  run "shard"
    [
      ( "batch-ops",
        [
          test_case "roundtrip order" `Quick test_batch_roundtrip;
          test_case "partial batch" `Quick test_batch_partial;
          test_case "interleaves with singles" `Quick test_batch_interleaves_with_singles;
          test_case "zero-size no-ops" `Quick test_batch_empty_noops;
          test_case "one FAA per batch" `Quick test_batch_one_faa_per_batch;
          test_case "segment crossing" `Quick test_batch_segment_crossing;
          test_case "obs counters" `Quick test_batch_obs_counters;
        ] );
      ( "router",
        [
          test_case "conservation" `Quick test_router_conservation;
          test_case "batch conservation" `Quick test_router_batch_conservation;
          test_case "per-shard FIFO" `Quick test_router_per_shard_fifo;
          test_case "rebalancing" `Quick test_router_rebalance;
          test_case "bounded backpressure" `Quick test_router_bounded;
          test_case "unbounded never blocks" `Quick test_router_unbounded_never_blocks;
          test_case "snapshot folding" `Quick test_router_snapshot_fold;
          test_case "registry instances" `Quick test_registry_instances;
        ] );
      ( "checker",
        [
          test_case "catches shard FIFO violation" `Quick test_checker_catches_shard_fifo_violation;
          test_case "overtake bound" `Quick test_checker_overtake_bound;
          test_case "EMPTY respects shards" `Quick test_checker_empty_respects_shards;
        ] );
      ( "simsched",
        [
          test_case "relaxed sweep matrix" `Slow test_sweep_matrix;
          test_case "strict reduction at shards=1" `Slow test_strict_reduction;
          test_case "batch linearizability" `Slow test_batch_linearizable_sweep;
          test_case "bounded enq-kill accounting" `Slow test_bounded_enq_kill_accounting;
        ] );
    ]
