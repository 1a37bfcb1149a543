(* Wait-freedom under injected faults.

   The paper's claim is not "fast when everyone cooperates" but
   "bounded completion even when other threads stall or die at the
   worst moment" (§3.6 discusses thread failures explicitly).  These
   tests drive the queue through exactly those moments: the simsched
   scheduler interleaves fibers deterministically while an
   [Inject.Plan] parks or kills victim fibers at named protocol
   points, so every failure is a (sim seed, plan seed) pair that
   replays identically.

   Every storm is judged by the one conservation audit of
   [Harness.Storm] (the rule [repro]'s storms apply): no value twice,
   none outside its owner's committed prefix except a killed owner's
   in-flight batch, and at most (dequeue-side kills x batch) committed
   values missing.  So a parked storm conserves values exactly, a
   helped dead enqueuer loses nothing, and each crashed dequeuer
   strands at most its batch.  Survivors always complete, and the
   queue stays fully operational afterwards — including cleanup, even
   when the victim died holding the cleanup token. *)

module Q = Simsched.Sim.Queue
module Sim = Simsched.Sim
module Storm = Harness.Storm

let check = Alcotest.check

let run_ok ?max_steps ~seed fibers =
  let stats = Sim.run ?max_steps ~seed:(Int64.of_int seed) fibers in
  if stats.Sim.max_steps_hit then
    Alcotest.failf "seed %d: scheduler step limit hit (livelock under faults?)" seed;
  stats

(* The shared victim controller, with a park as scheduler yields: a
   parked fiber is descheduled, letting the scheduler run everyone else
   through the victim's stall window.  Only fibers for which [victim]
   holds take faults; run it around [Sim.run] only. *)
let storm ~victim plan f =
  Storm.with_controller
    ~park:(fun n ->
      for _ = 1 to n do
        Sim.yield ()
      done)
    ~victim:(fun () -> victim (Sim.current_fiber ()))
    plan f

let audit ~seed ?(batch = 1) ~ops ~committed ~outcomes values =
  match (Storm.audit ~ops ~batch ~committed ~outcomes values).Storm.violations with
  | [] -> ()
  | vs -> Alcotest.failf "seed %d: %s" seed (String.concat "; " vs)

(* [n] fibers, none killed yet: the victim's handler records its kill *)
let ledger n = (Array.make n 0, Array.make n Storm.Completed)

let drain q h =
  let rec go acc = match Q.dequeue q h with Some v -> go (v :: acc) | None -> acc in
  List.rev (go [])

let parks points = List.fold_left (fun acc p -> acc + (Inject.stats p).Inject.parks) 0 points

(* ------------------------------------------------------------------ *)
(* Build matrix: which instantiations carry the injector              *)

let test_build_matrix () =
  check Alcotest.bool "production build has no injector" false Wfq.Wfqueue.injector_enabled;
  check Alcotest.bool "obs build has no injector" false Wfq.Wfqueue_obs.injector_enabled;
  check Alcotest.bool "llsc build has no injector" false Wfq.Wfqueue_llsc.injector_enabled;
  check Alcotest.bool "storm build has the injector" true Wfq.Wfqueue_inject.injector_enabled;
  check Alcotest.bool "sim build has the injector" true Q.injector_enabled;
  (* A Disabled build never consults the controller: run it under an
     installed always-park controller and observe zero hits. *)
  Inject.reset_stats ();
  Inject.with_controller (fun _ -> Inject.Park 1) (fun () ->
      let q = Wfq.Wfqueue.create () in
      for i = 1 to 50 do
        Wfq.Wfqueue.push q i
      done;
      for _ = 1 to 50 do
        ignore (Wfq.Wfqueue.pop q)
      done);
  let t = Inject.total_stats () in
  check Alcotest.int "disabled build recorded no hits" 0 t.Inject.hits

let test_enabled_transparent () =
  (* No controller installed: the Enabled build passes through. *)
  Inject.reset_stats ();
  let q = Wfq.Wfqueue_inject.create () in
  for i = 1 to 100 do
    Wfq.Wfqueue_inject.push q i
  done;
  let got = ref [] in
  let rec go () =
    match Wfq.Wfqueue_inject.pop q with
    | Some v ->
      got := v :: !got;
      go ()
    | None -> ()
  in
  go ();
  check Alcotest.int "fifo intact" 100 (List.length !got);
  let t = Inject.total_stats () in
  check Alcotest.int "no controller, no counting" 0 t.Inject.hits

(* ------------------------------------------------------------------ *)
(* K-of-N park storms, one sweep per injection-point class            *)

let aggressive_queue () =
  (* patience 0: first contention enters the slow path; tiny segments
     + max_garbage 2: cleanup runs constantly.  Every point class is
     reachable. *)
  Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ()

(* Interleaved enqueue/dequeue churn, [ops] pairs on fiber [i]:
   phase-structured workloads never contend (each fiber finishes its
   enqueues before any dequeuer can overtake a ticket), so slow paths,
   helping and cleanup would go unexercised.  A kill ends the fiber and
   retires its handle. *)
let churn q h ~ops (committed, outcomes) got i () =
  try
    for k = 0 to ops - 1 do
      Q.enqueue q h.(i) ((i * ops) + k);
      committed.(i) <- k + 1;
      match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
    done
  with Inject.Killed p ->
    outcomes.(i) <- Storm.Killed p;
    Q.retire q h.(i)

let test_park_storm cls () =
  let points = Inject.points_of_class cls in
  let fired = ref 0 in
  for seed = 1 to 150 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int (seed * 7919)) ()
    in
    let q = aggressive_queue () in
    let h = Array.init 4 (fun _ -> Q.register q) in
    let l = ledger 4 and got = ref [] in
    (* 2 victims of 4: only fibers 0 and 1 take faults *)
    storm ~victim:(fun f -> f <= 1) plan (fun () ->
        ignore (run_ok ~seed (Array.init 4 (churn q h ~ops:4 l got))));
    fired := !fired + parks points;
    audit ~seed ~ops:4 ~committed:(fst l) ~outcomes:(snd l) (!got @ drain q h.(0))
  done;
  (* The sweep must actually have exercised the class — a class whose
     points never fire would make this suite vacuous (e.g. after a
     refactor moves an injection site). *)
  if !fired = 0 then
    Alcotest.failf "no %s park ever fired across the sweep: dead injection points?"
      (Inject.class_name cls)

(* [rounds] of one [batch]-value enq_batch and one deq_batch on fiber
   [i]; [committed] advances by whole batches. *)
let batch_churn q h ~batch ~rounds (committed, outcomes) got i () =
  try
    for r = 0 to rounds - 1 do
      Q.enq_batch q h.(i) (Array.init batch (fun j -> (i * batch * rounds) + (r * batch) + j));
      committed.(i) <- (r + 1) * batch;
      Array.iter (function Some v -> got := v :: !got | None -> ()) (Q.deq_batch q h.(i) batch)
    done
  with Inject.Killed p ->
    outcomes.(i) <- Storm.Killed p;
    Q.retire q h.(i)

(* The generic storm churns single ops, so the batch windows need
   their own sweep: 4 fibers exchanging 3-value batches while two of
   them park right after their batch FAA — the window where k cells
   are reserved but none written (enqueue) or claimed (dequeue).
   Parking there stalls nobody and conserves values exactly: the
   per-cell fallback gives every survivor touching a reserved cell a
   wait-free way past it. *)
let test_batch_park_storm () =
  let points = Inject.points_of_class Inject.Batch in
  let fired = ref 0 in
  for seed = 1 to 150 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int (seed * 7919)) ()
    in
    let q = aggressive_queue () in
    let h = Array.init 4 (fun _ -> Q.register q) in
    let l = ledger 4 and got = ref [] in
    storm ~victim:(fun f -> f <= 1) plan (fun () ->
        ignore (run_ok ~seed (Array.init 4 (batch_churn q h ~batch:3 ~rounds:2 l got))));
    fired := !fired + parks points;
    audit ~seed ~batch:3 ~ops:6 ~committed:(fst l) ~outcomes:(snd l) (!got @ drain q h.(0))
  done;
  if !fired = 0 then
    Alcotest.fail "no batch park ever fired across the sweep: dead injection points?"

(* ------------------------------------------------------------------ *)
(* Die storms: crashed threads strand at most one value, never
   duplicate one, and survivors always finish                        *)

let test_kill_storm () =
  let total_kills = ref 0 in
  for seed = 1 to 400 do
    let plan = Inject.Plan.make ~lethal:true ~arm_window:2 ~seed:(Int64.of_int (seed * 31)) () in
    let q = aggressive_queue () in
    let h = Array.init 4 (fun _ -> Q.register q) in
    (* [committed] counts the victim's COMPLETED enqueues: a crash ends
       its participation, so values it never attempted are not "lost"
       — only its single in-flight value is in doubt (helpers can
       complete a dead peer's published request, at most once) *)
    let l = ledger 4 and got = ref [] in
    storm ~victim:(fun f -> f = 0) plan (fun () ->
        ignore (run_ok ~seed (Array.init 4 (churn q h ~ops:4 l got))));
    total_kills := !total_kills + (Inject.total_stats ()).Inject.kills;
    audit ~seed ~ops:4 ~committed:(fst l) ~outcomes:(snd l) (!got @ drain q h.(1))
  done;
  if !total_kills = 0 then
    Alcotest.fail "no kill ever fired across 400 seeds: lethal plans are dead code?"

(* Dying right after a batch FAA is the widest crash window the queue
   has: k tickets are reserved in one blow and none of the k cells is
   written/claimed yet.  A dead batch enqueuer abandons k cells that
   dequeuers must be able to skip; a dead batch dequeuer burns k head
   tickets whose cells' values are stranded forever.  So the stranding
   bound scales with the batch — and duplication stays impossible
   (the per-cell claim CASes are unchanged).  The in-flight batch of a
   killed enqueuer is never written past the injection point, but a
   future refactor moving the point after partial writes would make
   its values legitimately appear, at most once. *)
let test_batch_kill_storm () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Enq_batch_after_faa; Inject.Deq_batch_after_faa ]
        ~seed:(Int64.of_int (seed * 17)) ()
    in
    let q = aggressive_queue () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let l = ledger 3 and got = ref [] in
    storm ~victim:(fun f -> f = 0) plan (fun () ->
        ignore (run_ok ~seed (Array.init 3 (batch_churn q h ~batch:3 ~rounds:3 l got))));
    total_kills := !total_kills + (Inject.total_stats ()).Inject.kills;
    audit ~seed ~batch:3 ~ops:9 ~committed:(fst l) ~outcomes:(snd l) (!got @ drain q h.(1))
  done;
  if !total_kills = 0 then
    Alcotest.fail "no batch kill ever fired across 300 seeds: lethal batch plans are dead code?"

(* ------------------------------------------------------------------ *)
(* Bounded-mode freelist storms (PR 9): the two [Pool]-class windows.

   [Seg_pool_acquire] only fires under genuine cap pressure (budget
   spent, pool empty, the acquire polling for a recycle), so these
   storms run a {e bounded} queue with producers outrunning consumers
   instead of joining the generic unbounded park-storm sweep.  Two
   invariants, from the injection points' contracts:

   - the segment cap is never exceeded: fresh allocations are
     budget-gated and the budget is never replenished by recycling,
     so [allocated_segments <= cap] at {e every} instant — which
     implies live + pooled <= cap always (each existing segment was
     allocated exactly once);
   - no segment is reachable from two chains: a double release would
     surface as a duplicated value once both "copies" recycle, and as
     a pool whose walked length disagrees with its counter.  A death
     at [Seg_pool_release] may leak capacity (segments reset but
     never pushed) — documented as lost budget, never unsafety. *)

let check_cap ~seed q cap =
  if Q.allocated_segments q > cap then
    Alcotest.failf "seed %d: %d segments allocated past cap %d" seed (Q.allocated_segments q) cap

let check_footprint ~seed q cap =
  if Q.live_segments q + Q.pooled_segments q > cap then
    Alcotest.failf "seed %d: live+pooled %d+%d exceeds cap %d" seed (Q.live_segments q)
      (Q.pooled_segments q) cap

(* Dequeue until every producer is done and three polls in a row read
   empty. *)
let consume q h producers_done got () =
  let idle = ref 0 in
  while !producers_done < 2 || !idle < 3 do
    match Q.dequeue q h with
    | Some v ->
      got := v :: !got;
      idle := 0
    | None -> incr idle
  done

(* 2-of-4 parked in the freelist windows: pure delay, so conservation
   must be exact and the cap invariant untouched. *)
let test_pool_park_storm () =
  let cap = 6 in
  let points = [ Inject.Seg_pool_acquire; Inject.Seg_pool_release ] in
  let acquire_parks = ref 0 and release_parks = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int (seed * 433)) ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ~segment_cap:cap () in
    let h = Array.init 4 (fun _ -> Q.register q) in
    let committed, outcomes = ledger 4 and got = ref [] in
    let producers_done = ref 0 in
    (* 12 values through 6 segments' worth of cells keeps the budget
       exhausted: the park-prone producers really reach the acquire
       poll *)
    let producer i () =
      for k = 0 to 5 do
        Q.enqueue q h.(i) ((i * 6) + k);
        committed.(i) <- k + 1;
        check_cap ~seed q cap
      done;
      (* a dequeue tail walks the park-prone fibers through cleanup's
         release loop too *)
      for _ = 1 to 3 do
        match Q.dequeue q h.(i) with Some v -> got := v :: !got | None -> ()
      done;
      incr producers_done
    in
    let consumer i = consume q h.(i) producers_done got in
    storm ~victim:(fun f -> f <= 1) plan (fun () ->
        ignore (run_ok ~seed [| producer 0; producer 1; consumer 2; consumer 3 |]));
    acquire_parks := !acquire_parks + parks [ Inject.Seg_pool_acquire ];
    release_parks := !release_parks + parks [ Inject.Seg_pool_release ];
    audit ~seed ~ops:6 ~committed ~outcomes (!got @ drain q h.(2));
    check_footprint ~seed q cap;
    if Q.Internal.pool_length q <> Q.pooled_segments q then
      Alcotest.failf "seed %d: pool length %d disagrees with counter %d" seed
        (Q.Internal.pool_length q) (Q.pooled_segments q)
  done;
  if !acquire_parks = 0 then
    Alcotest.fail "no park at Seg_pool_acquire across 300 seeds: no cap pressure reached?";
  if !release_parks = 0 then
    Alcotest.fail "no park at Seg_pool_release across 300 seeds: cleanup never released?"

(* Deaths in the freelist windows: a kill strands at most the
   victim's one in-flight value, never duplicates, and the cap holds
   even when a crashed cleaner leaks its reset-but-unpushed
   segments. *)
let test_pool_kill_storm () =
  let cap = 8 in
  let acquire_kills = ref 0 in
  let release_kills = ref 0 in
  for seed = 1 to 400 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Seg_pool_acquire; Inject.Seg_pool_release ]
        ~seed:(Int64.of_int ((seed * 131) + 7))
        ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 ~segment_cap:cap () in
    let h = Array.init 4 (fun _ -> Q.register q) in
    let committed, outcomes = ledger 4 and got = ref [] in
    let producers_done = ref 0 in
    let enq_count = ref 0 in
    (* the victim enqueues first (arming the admission wait where the
       acquire point now fires) and then dequeues a tail (walking it
       through cleanup's release loop) *)
    let victim () =
      (try
         for k = 0 to 5 do
           Q.enqueue q h.(0) k;
           committed.(0) <- k + 1;
           incr enq_count
         done;
         for _ = 1 to 3 do
           match Q.dequeue q h.(0) with Some v -> got := v :: !got | None -> ()
         done
       with Inject.Killed p ->
         outcomes.(0) <- Storm.Killed p;
         Q.retire q h.(0));
      incr producers_done
    in
    let producer () =
      for k = 0 to 5 do
        Q.enqueue q h.(1) (6 + k);
        committed.(1) <- k + 1;
        incr enq_count;
        check_cap ~seed q cap
      done;
      incr producers_done
    in
    let consumer i () =
      (* sleep through the fill so the admission line actually backs
         up: a producer can only block once 8 net enqueues are in
         ([enq_capacity] for this cap), at which point the wake
         condition below has already released the drain *)
      while !enq_count < 8 && !producers_done < 2 do
        Sim.yield ()
      done;
      consume q h.(i) producers_done got ()
    in
    storm ~victim:(fun f -> f = 0) plan (fun () ->
        ignore (run_ok ~seed [| victim; producer; consumer 2; consumer 3 |]));
    acquire_kills := !acquire_kills + (Inject.stats Inject.Seg_pool_acquire).Inject.kills;
    release_kills := !release_kills + (Inject.stats Inject.Seg_pool_release).Inject.kills;
    audit ~seed ~ops:6 ~committed ~outcomes (!got @ drain q h.(2));
    check_footprint ~seed q cap;
    if Q.pooled_segments q > Q.Internal.pool_limit q then
      Alcotest.failf "seed %d: pool counter %d past its limit %d" seed (Q.pooled_segments q)
        (Q.Internal.pool_limit q)
  done;
  if !acquire_kills = 0 then
    Alcotest.fail "no kill at Seg_pool_acquire across 400 seeds: storm is dead code?";
  if !release_kills = 0 then
    Alcotest.fail "no kill at Seg_pool_release across 400 seeds: storm is dead code?"

(* A dead slow-path enqueuer's published request is completed by
   helpers: the value it announced still flows to a dequeuer, and a
   kill there (an enqueue-side point) may strand nothing. *)
let test_helping_completes_dead_enqueuer () =
  let recovered = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Enq_slow_published ]
        ~seed:(Int64.of_int seed) ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let l = ledger 3 and got = ref [] in
    (* churn on all fibers so the victim's fast-path CAS actually loses
       cells and enters the slow path; the kill lands right after its
       request is published *)
    storm ~victim:(fun f -> f = 0) plan (fun () ->
        ignore (run_ok ~seed (Array.init 3 (churn q h ~ops:6 l got))));
    let all = !got @ drain q h.(1) in
    audit ~seed ~ops:6 ~committed:(fst l) ~outcomes:(snd l) all;
    let kills = (Inject.total_stats ()).Inject.kills in
    if kills > 0 && List.exists (fun v -> v < 6) all then incr recovered
  done;
  (* helping is the mechanism under test: across the sweep, some dead
     enqueuer's published value must have been completed by a peer *)
  if !recovered = 0 then
    Alcotest.fail "no published request of a dead enqueuer was ever helped to completion"

(* One role-split storm: fibers [0, producers) enqueue [ops] values
   each, the rest dequeue [deqs] times each; [victim] fibers take the
   plan's faults.  A killed fiber records its kill and retires its
   handle.  Audits the storm after draining through the last
   consumer's handle, and returns that handle. *)
let role_storm ~seed ~producers ~consumers ~ops ~deqs ~victim plan ~register ~enqueue ~dequeue
    ~retire =
  let n = producers + consumers in
  let h = Array.init n (fun _ -> register ()) in
  let committed, outcomes = ledger n and got = ref [] in
  let fiber i () =
    try
      if i < producers then
        for k = 0 to ops - 1 do
          enqueue h.(i) ((i * ops) + k);
          committed.(i) <- k + 1
        done
      else
        for _ = 1 to deqs do
          match dequeue h.(i) with Some v -> got := v :: !got | None -> ()
        done
    with Inject.Killed p ->
      outcomes.(i) <- Storm.Killed p;
      retire h.(i)
  in
  storm ~victim plan (fun () -> ignore (run_ok ~seed (Array.init n fiber)));
  let rec drain acc = match dequeue h.(n - 1) with Some v -> drain (v :: acc) | None -> acc in
  audit ~seed ~ops ~committed ~outcomes (!got @ drain []);
  h.(n - 1)

let test_dead_dequeuer_strands_at_most_one () =
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1
        ~points:[ Inject.Deq_fast_after_faa; Inject.Deq_slow_published ]
        ~seed:(Int64.of_int seed) ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    (* one producer, two consumers; consumer fiber 1 is the victim *)
    ignore
      (role_storm ~seed ~producers:1 ~consumers:2 ~ops:8 ~deqs:4 ~victim:(fun f -> f = 1) plan
         ~register:(fun () -> Q.register q)
         ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q))
  done

(* Dying while holding the cleanup token must not wedge reclamation:
   the token is restored on the way out (Fun.protect in [cleanup]),
   so later cleanups still run. *)
let test_cleanup_token_death_recovers () =
  let exercised = ref 0 in
  for seed = 1 to 200 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Cleanup_token_held ]
        ~seed:(Int64.of_int seed) ()
    in
    let q = Q.create ~patience:0 ~segment_shift:1 ~max_garbage:2 () in
    let h = Array.init 3 (fun _ -> Q.register q) in
    let churn i () =
      try
        for k = 1 to 8 do
          Q.enqueue q h.(i) ((i * 100) + k);
          ignore (Q.dequeue q h.(i))
        done
      with Inject.Killed _ -> Q.retire q h.(0)
    in
    storm ~victim:(fun f -> f = 0) plan (fun () ->
        ignore (run_ok ~seed [| churn 0; churn 1; churn 2 |]));
    if (Inject.total_stats ()).Inject.kills > 0 then begin
      incr exercised;
      (* the token was restored: post-mortem churn still reclaims *)
      let before = Q.reclaimed_segments q in
      for k = 1 to 64 do
        Q.enqueue q h.(1) k;
        ignore (Q.dequeue q h.(1))
      done;
      if Q.reclaimed_segments q <= before then
        Alcotest.failf "seed %d: cleanup wedged after token-holder death" seed
    end
  done;
  if !exercised = 0 then Alcotest.fail "no cleanup-token death was ever injected"

(* ------------------------------------------------------------------ *)
(* Topology storms: the specialized variant family under faults.  The
   variants have no helping — their fault story is structural (holes
   skipped, tickets poisoned, switches drained), so the claims are
   the same currency as above: parks stall nobody, each kill strands
   at most one value, nothing duplicates, survivors complete.        *)

(* Park storm at the [Topology] points, one sweep per variant under
   its legal topology.  A producer parked in the hole window or a
   consumer parked on a held ticket delays nobody; values are
   conserved exactly. *)
let test_topology_park_storm () =
  let points = Inject.points_of_class Inject.Topology in
  let plan seed = Inject.Plan.make ~park:6 ~arm_window:1 ~points ~seed:(Int64.of_int seed) () in
  let fired = ref 0 in
  for seed = 1 to 100 do
    (* SPSC: producer fiber 0 (victim), consumer fiber 1 *)
    (let module Q = Simsched.Sim.Spsc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     ignore
       (role_storm ~seed ~producers:1 ~consumers:1 ~ops:8 ~deqs:8 ~victim:(fun f -> f = 0)
          (plan (seed * 7919))
          ~register:(fun () -> Q.register q)
          ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q));
     fired := !fired + parks points);
    (* MPSC: producers 0 (victim) and 1, consumer 2 *)
    (let module Q = Simsched.Sim.Mpsc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     ignore
       (role_storm ~seed ~producers:2 ~consumers:1 ~ops:4 ~deqs:8 ~victim:(fun f -> f = 0)
          (plan (seed * 31))
          ~register:(fun () -> Q.register q)
          ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q));
     fired := !fired + parks points);
    (* SPMC: producer 0, consumers 1 (victim) and 2 *)
    (let module Q = Simsched.Sim.Spmc in
     let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
     ignore
       (role_storm ~seed ~producers:1 ~consumers:2 ~ops:8 ~deqs:4 ~victim:(fun f -> f = 1)
          (plan (seed * 17))
          ~register:(fun () -> Q.register q)
          ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q));
     fired := !fired + parks points);
    (* Adaptive: two producers force a switch mid-stream; a park in
       the drain window must not wedge the commit *)
    let module Q = Simsched.Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    ignore
      (role_storm ~seed ~producers:2 ~consumers:1 ~ops:4 ~deqs:8 ~victim:(fun f -> f <= 1)
         (plan (seed * 13))
         ~register:(fun () -> Q.register q)
         ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q));
    fired := !fired + parks points
  done;
  if !fired = 0 then
    Alcotest.fail "no topology park ever fired across the sweep: dead injection points?"

(* A producer killed in the MPSC hole window (ticket FAA'd, cell
   never written) leaves a PERMANENT hole.  The consumer must skip it
   forever without stalling: every other value still flows, nothing
   duplicates, and only the victim's in-flight value is in doubt. *)
let test_topo_dead_producer_leaves_hole () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_enq_pending ]
        ~seed:(Int64.of_int (seed * 23)) ()
    in
    let module Q = Simsched.Sim.Mpsc in
    let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
    let hc =
      role_storm ~seed ~producers:2 ~consumers:1 ~ops:4 ~deqs:8 ~victim:(fun f -> f = 0) plan
        ~register:(fun () -> Q.register q)
        ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q)
    in
    total_kills := !total_kills + (Inject.total_stats ()).Inject.kills;
    (* the permanent hole must not wedge later traffic *)
    let hp = Q.register q in
    Q.enqueue q hp 999;
    match Q.dequeue q hc with
    | Some 999 -> ()
    | _ -> Alcotest.failf "seed %d: queue wedged behind a dead producer's hole" seed
  done;
  if !total_kills = 0 then
    Alcotest.fail "no hole-window kill ever fired: lethal topology plans are dead code?"

(* A consumer killed holding an SPMC head ticket never resolves its
   cell: the value the producer deposits there is stranded — but at
   most that one, and the ticket's segment pin only costs memory,
   never progress. *)
let test_topo_dead_ticket_strands_at_most_one () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_deq_pending ]
        ~seed:(Int64.of_int (seed * 29)) ()
    in
    let module Q = Simsched.Sim.Spmc in
    let q = Q.create ~segment_shift:1 ~max_garbage:2 () in
    ignore
      (role_storm ~seed ~producers:1 ~consumers:2 ~ops:8 ~deqs:4 ~victim:(fun f -> f = 1) plan
         ~register:(fun () -> Q.register q)
         ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q));
    total_kills := !total_kills + (Inject.total_stats ()).Inject.kills
  done;
  if !total_kills = 0 then
    Alcotest.fail "no ticket-window kill ever fired: lethal topology plans are dead code?"

(* Death in the adaptive switch drain: the kill is absorbed until the
   switch commits ("die late"), so a crashed switcher can never leave
   the queue wedged mid-mode.  Survivors finish, a killed producer's
   in-flight value may land (the enqueue itself completes before the
   kill is re-raised), and the queue stays fully operational on the
   new backend. *)
let test_topo_switch_death_recovers () =
  let total_kills = ref 0 in
  for seed = 1 to 300 do
    let plan =
      Inject.Plan.make ~lethal:true ~arm_window:1 ~points:[ Inject.Topo_switch_draining ]
        ~seed:(Int64.of_int (seed * 37)) ()
    in
    let module Q = Simsched.Sim.Adaptive_queue in
    let q = Q.create ~patience:2 ~segment_shift:1 ~max_garbage:2 () in
    (* both producers are victims: whichever one performs the
       spsc->mpsc switch can die in the drain window *)
    let hc =
      role_storm ~seed ~producers:2 ~consumers:1 ~ops:4 ~deqs:8 ~victim:(fun f -> f <= 1) plan
        ~register:(fun () -> Q.register q)
        ~enqueue:(Q.enqueue q) ~dequeue:(Q.dequeue q) ~retire:(Q.retire q)
    in
    total_kills := !total_kills + (Inject.total_stats ()).Inject.kills;
    (* the switch committed (or was never needed): the queue works *)
    Q.enqueue q hc 999;
    match Q.dequeue q hc with
    | Some 999 -> ()
    | _ -> Alcotest.failf "seed %d: queue wedged after switch-window death" seed
  done;
  if !total_kills = 0 then
    Alcotest.fail "no switch-drain kill ever fired: lethal topology plans are dead code?"

(* The real-domain storms run [repro]'s own runner and audit: 4
   domains, the first 2 victims, a park plan then a kill plan, each on
   a fresh subject. *)
let real_storm make =
  List.iter
    (fun (seed, kill) ->
      let r =
        Storm.run (make ()) Storm.Pairs ~domains:4 ~ops:2_000
          { Storm.seed; park = 50; kill; victims = Some 2 }
      in
      match Storm.violations r with
      | [] -> ()
      | vs -> Alcotest.failf "seed %d (kill=%b): %s" seed kill (String.concat "; " vs))

(* The storm build of the adaptive family on real domains: hardware
   scheduling instead of the sim.  The all-pairs storm degrades it to
   the general backend; the queue must still be consistent there. *)
let test_topo_real_storm_smoke () =
  let module W = Topology.Adaptive_inject in
  real_storm
    (fun () ->
      let q = W.create ~segment_shift:2 ~max_garbage:2 () in
      Storm.subject (fun () ->
          let h = W.register q in
          Storm.single ~enqueue:(W.enqueue q h) ~dequeue_or:(W.dequeue_or q h)
            ~retire:(fun () -> W.retire q h)))
    [ (21, false); (22, true) ]

(* ------------------------------------------------------------------ *)
(* Determinism: one (sim seed, plan seed) pair is one storm           *)

let storm_trace ~sim_seed ~plan_seed =
  let plan = Inject.Plan.make ~park:6 ~arm_window:2 ~seed:(Int64.of_int plan_seed) () in
  let trace = ref [] in
  let q = aggressive_queue () in
  let h = Array.init 4 (fun _ -> Q.register q) in
  let actor i () =
    for k = 1 to 4 do
      Q.enqueue q h.(i) ((i * 10) + k)
    done;
    for _ = 1 to 4 do
      match Q.dequeue q h.(i) with
      | Some v -> trace := v :: !trace
      | None -> trace := -1 :: !trace
    done
  in
  storm ~victim:(fun f -> f <= 1) plan (fun () ->
      ignore (run_ok ~seed:sim_seed [| actor 0; actor 1; actor 2; actor 3 |]));
  let per_point =
    List.map
      (fun p ->
        let s = Inject.stats p in
        (Inject.point_name p, s.Inject.hits, s.Inject.parks, s.Inject.kills))
      Inject.all_points
  in
  (List.rev !trace @ drain q h.(0), per_point)

let test_same_seed_same_storm () =
  for sim_seed = 1 to 40 do
    let t1 = storm_trace ~sim_seed ~plan_seed:(sim_seed * 13) in
    let t2 = storm_trace ~sim_seed ~plan_seed:(sim_seed * 13) in
    if t1 <> t2 then Alcotest.failf "sim seed %d: same seeds, different storm" sim_seed
  done

(* ------------------------------------------------------------------ *)
(* Real domains: the storm build under hardware scheduling            *)

let test_real_storm_smoke () =
  let module W = Wfq.Wfqueue_inject in
  real_storm
    (fun () ->
      let q = W.create ~patience:1 ~segment_shift:2 ~max_garbage:2 () in
      Storm.subject (fun () ->
          let h = W.register q in
          Storm.single ~enqueue:(W.enqueue q h) ~dequeue_or:(W.dequeue_or q h)
            ~retire:(fun () -> W.retire q h)))
    [ (11, false); (12, true) ]

let () =
  Alcotest.run "inject"
    [
      ( "build-matrix",
        [
          Alcotest.test_case "injector wiring per build" `Quick test_build_matrix;
          Alcotest.test_case "enabled build transparent without controller" `Quick
            test_enabled_transparent;
        ] );
      ( "park-storms",
        List.map
          (fun cls ->
            Alcotest.test_case
              (Printf.sprintf "2-of-4 parked at %s points" (Inject.class_name cls))
              `Quick (test_park_storm cls))
          [ Inject.Enqueue; Inject.Dequeue; Inject.Helping; Inject.Cleanup; Inject.Hazard ]
        @ [
            Alcotest.test_case "2-of-4 parked at batch points" `Quick test_batch_park_storm;
            Alcotest.test_case "2-of-4 parked in bounded freelist windows" `Quick
              test_pool_park_storm;
          ] );
      ( "kill-storms",
        [
          Alcotest.test_case "crashes strand <=1 value, never duplicate" `Quick test_kill_storm;
          Alcotest.test_case "batch crashes strand <= batch values" `Quick test_batch_kill_storm;
          Alcotest.test_case "freelist crashes keep the segment cap" `Quick test_pool_kill_storm;
          Alcotest.test_case "helpers complete a dead enqueuer's request" `Quick
            test_helping_completes_dead_enqueuer;
          Alcotest.test_case "dead dequeuer strands at most one value" `Quick
            test_dead_dequeuer_strands_at_most_one;
          Alcotest.test_case "cleanup survives token-holder death" `Quick
            test_cleanup_token_death_recovers;
        ] );
      ( "topology-storms",
        [
          Alcotest.test_case "parks at topology points conserve values" `Quick
            test_topology_park_storm;
          Alcotest.test_case "dead MPSC producer leaves a skippable hole" `Quick
            test_topo_dead_producer_leaves_hole;
          Alcotest.test_case "dead SPMC ticket strands at most one value" `Quick
            test_topo_dead_ticket_strands_at_most_one;
          Alcotest.test_case "death during adaptive switch drain recovers" `Quick
            test_topo_switch_death_recovers;
          Alcotest.test_case "4-domain adaptive storm smoke" `Quick test_topo_real_storm_smoke;
        ] );
      ( "determinism",
        [ Alcotest.test_case "same seeds, same storm" `Quick test_same_seed_same_storm ] );
      ("real-domains", [ Alcotest.test_case "4-domain storm smoke" `Quick test_real_storm_smoke ]);
    ]
