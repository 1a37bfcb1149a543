(* Tests for the effects-based task scheduler (lib/sched).

   Three layers, mirroring how the subsystem is built:
   - the lock-free core (promises + Chase–Lev deque + the help loop)
     and the admission/shutdown/drain protocol model-checked on the
     simsched shim: exhaustive preemption-bounded exploration and
     ≥500-seed random sweeps of the steal-vs-pop, resolve-vs-await,
     help-vs-steal and submit-vs-shutdown races, plus seeded kill
     storms at the new injection points;
   - the runtime on real domains (Sched.Scheduler): fan-out/fan-in,
     micropools, external submitters, worker death, shutdown
     stranding, awaits that help instead of parking;
   - the storm build (Sched.Scheduler_inject): which promises the
     registry must hold, what its scrubs cost, and seeded kill plans
     over the queue and scheduler windows, asserting zero stranded
     promises. *)

let check = Alcotest.check

module Sim = Simsched.Sim
module SC = Sim.Sched_core
module Deque = SC.Deque
module Promise = SC.Promise

(* ------------------------------------------------------------------ *)
(* Deque: sequential semantics                                        *)

let test_deque_sequential () =
  let d = Deque.create ~capacity:8 () in
  check Alcotest.int "capacity" 8 (Deque.capacity d);
  for i = 1 to 8 do
    check Alcotest.bool "push fits" true (Deque.push d i)
  done;
  check Alcotest.bool "push overflows at capacity" false (Deque.push d 9);
  check Alcotest.int "length" 8 (Deque.length d);
  (* owner pops LIFO *)
  check Alcotest.(option int) "pop lifo" (Some 8) (Deque.pop d);
  (* thief steals FIFO *)
  check Alcotest.(option int) "steal fifo" (Some 1) (Deque.steal d);
  check Alcotest.(option int) "steal fifo 2" (Some 2) (Deque.steal d);
  check Alcotest.(option int) "pop lifo 2" (Some 7) (Deque.pop d);
  (* drain the rest from both ends *)
  check Alcotest.(option int) "steal 3" (Some 3) (Deque.steal d);
  check Alcotest.(option int) "pop 6" (Some 6) (Deque.pop d);
  check Alcotest.(option int) "pop 5" (Some 5) (Deque.pop d);
  check Alcotest.(option int) "pop 4 (last)" (Some 4) (Deque.pop d);
  check Alcotest.(option int) "empty pop" None (Deque.pop d);
  check Alcotest.(option int) "empty steal" None (Deque.steal d);
  (* indices keep working after wraparound *)
  for round = 1 to 5 do
    for i = 1 to 6 do
      ignore (Deque.push d ((round * 10) + i) : bool)
    done;
    for i = 1 to 3 do
      check Alcotest.(option int) "wrap steal" (Some ((round * 10) + i)) (Deque.steal d)
    done;
    for i = 6 downto 4 do
      check Alcotest.(option int) "wrap pop" (Some ((round * 10) + i)) (Deque.pop d)
    done
  done;
  check Alcotest.bool "rejects non-power-of-two" true
    (try
       ignore (Deque.create ~capacity:6 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Deque: steal-vs-pop races under the simulated scheduler            *)

(* Shared scenario: an owner pushes [n_items] and pops some, thieves
   sweep concurrently; afterwards the test drains sequentially and
   checks every pushed value was taken exactly once — the Chase–Lev
   conservation invariant (the last-element CAS race and the
   stale-read ABA window both break exactly this if wrong). *)
type deque_state = { d : int Deque.t; taken : int list ref }

let take st v = st.taken := v :: !(st.taken)

let deque_fibers st ~n_items ~n_pops ~n_thieves ~attempts =
  let owner () =
    for i = 1 to n_items do
      (* capacity 16 >= n_items: pushes never overflow here *)
      ignore (Deque.push st.d i : bool)
    done;
    for _ = 1 to n_pops do
      match Deque.pop st.d with Some v -> take st v | None -> ()
    done
  in
  let thief () =
    for _ = 1 to attempts do
      match Deque.steal st.d with Some v -> take st v | None -> ()
    done
  in
  Array.append [| owner |] (Array.init n_thieves (fun _ -> thief))

let deque_check st ~n_items ~ident =
  (* post-run: drain what is left (no concurrency, plain pops) *)
  let rec drain () =
    match Deque.pop st.d with
    | Some v ->
      take st v;
      drain ()
    | None -> ()
  in
  drain ();
  let got = List.sort compare !(st.taken) in
  let want = List.init n_items (fun i -> i + 1) in
  if got <> want then
    Alcotest.failf "%s: conservation broken: took [%s], want [%s]" ident
      (String.concat ";" (List.map string_of_int got))
      (String.concat ";" (List.map string_of_int want))

let test_deque_explore_last_element () =
  (* the smallest witness of the owner-vs-thief top CAS race: one
     element, one pop, one steal — exhaustive *)
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:60_000 ~preemptions:3
      ~make_fibers:(fun () ->
        let st = { d = Deque.create ~capacity:16 (); taken = ref [] } in
        state := Some st;
        deque_fibers st ~n_items:1 ~n_pops:1 ~n_thieves:1 ~attempts:2)
      ~check:(fun () -> deque_check (Option.get !state) ~n_items:1 ~ident:"last-element")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules";
  check Alcotest.bool "non-trivial space" true (r.Sim.schedules > 50)

let test_deque_explore_steal_vs_pop () =
  (* two elements: the pop-side decrement and the steal CAS interleave
     across a non-empty ring — exhaustive with 2 forced preemptions *)
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:80_000 ~preemptions:2
      ~make_fibers:(fun () ->
        let st = { d = Deque.create ~capacity:16 (); taken = ref [] } in
        state := Some st;
        deque_fibers st ~n_items:2 ~n_pops:2 ~n_thieves:1 ~attempts:2)
      ~check:(fun () -> deque_check (Option.get !state) ~n_items:2 ~ident:"steal-vs-pop")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules";
  check Alcotest.bool "non-trivial space" true (r.Sim.schedules > 100)

let test_deque_seed_sweep () =
  (* deeper interleavings than the preemption bound reaches: 600 seeds
     of owner + 2 thieves over 8 items *)
  for seed = 1 to 600 do
    let st = { d = Deque.create ~capacity:16 (); taken = ref [] } in
    let stats =
      Sim.run ~seed:(Int64.of_int seed)
        (deque_fibers st ~n_items:8 ~n_pops:5 ~n_thieves:2 ~attempts:6)
    in
    if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed;
    deque_check st ~n_items:8 ~ident:(Printf.sprintf "seed %d" seed)
  done

(* ------------------------------------------------------------------ *)
(* Promise: resolve-exactly-once and resolve-vs-await                 *)

type promise_state = {
  p : (int, int) Promise.t;
  wins : int ref;
  fired : int ref; (* total waiter invocations *)
  saw : (int, int) result option ref; (* first value a waiter saw *)
}

let make_promise_state () = { p = Promise.create (); wins = ref 0; fired = ref 0; saw = ref None }

let waiter st r =
  incr st.fired;
  match !(st.saw) with
  | None -> st.saw := Some r
  | Some prev ->
    if prev <> r then Alcotest.failf "waiters saw different results (split resolution)"

let promise_check st ~n_waiters ~ident =
  if !(st.wins) <> 1 then Alcotest.failf "%s: %d resolvers won (want exactly 1)" ident !(st.wins);
  if !(st.fired) <> n_waiters then
    Alcotest.failf "%s: %d waiter firings for %d waiters" ident !(st.fired) n_waiters;
  match (Promise.poll st.p, !(st.saw)) with
  | None, _ -> Alcotest.failf "%s: promise unresolved after a winner" ident
  | Some r, Some seen when r <> seen ->
    Alcotest.failf "%s: waiter saw a value the promise does not hold" ident
  | Some _, _ -> ()

let test_promise_explore_resolve_race () =
  (* 2 resolvers racing 1 awaiter, exhaustive: exactly one wins; the
     waiter fires exactly once whichever side of the registration CAS
     the resolution lands on *)
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:60_000 ~preemptions:3
      ~make_fibers:(fun () ->
        let st = make_promise_state () in
        state := Some st;
        let resolver v () = if Promise.try_resolve st.p (Ok v) then incr st.wins in
        let awaiter () = ignore (Promise.add_waiter st.p (waiter st) : bool) in
        [| resolver 1; resolver 2; awaiter |])
      ~check:(fun () -> promise_check (Option.get !state) ~n_waiters:1 ~ident:"explore")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules";
  check Alcotest.bool "non-trivial space" true (r.Sim.schedules > 100)

let test_promise_seed_sweep () =
  (* 600 seeds: 3 resolvers (one rejecting) vs 3 awaiters *)
  for seed = 1 to 600 do
    let st = make_promise_state () in
    let resolver v () = if Promise.try_resolve st.p v then incr st.wins in
    let awaiter () = ignore (Promise.add_waiter st.p (waiter st) : bool) in
    let fibers =
      [| resolver (Ok 1); resolver (Ok 2); resolver (Error 3); awaiter; awaiter; awaiter |]
    in
    let stats = Sim.run ~seed:(Int64.of_int seed) fibers in
    if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed;
    promise_check st ~n_waiters:3 ~ident:(Printf.sprintf "seed %d" seed)
  done

(* ------------------------------------------------------------------ *)
(* Kill storms at the new injection points (simulated)                *)

let test_kill_steal_window () =
  (* a thief dies holding the claim window ([Sched_steal_pending],
     pre-CAS): it must have taken nothing, and everyone else must
     still take everything exactly once.  400 seeds, victim rotates. *)
  for seed = 1 to 400 do
    let victim = 1 + (seed mod 2) in
    (* fiber index of a thief *)
    let st = { d = Deque.create ~capacity:16 (); taken = ref [] } in
    let dead = ref false in
    let fibers = deque_fibers st ~n_items:8 ~n_pops:4 ~n_thieves:2 ~attempts:6 in
    let shielded =
      Array.mapi
        (fun i f () ->
          if i = victim then (try f () with Inject.Killed _ -> dead := true) else f ())
        fibers
    in
    Inject.with_controller
      (fun p ->
        if p = Inject.Sched_steal_pending && Sim.current_fiber () = victim then Inject.Die
        else Inject.Continue)
      (fun () ->
        let stats = Sim.run ~seed:(Int64.of_int seed) shielded in
        if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed);
    deque_check st ~n_items:8 ~ident:(Printf.sprintf "steal-kill seed %d" seed);
    (* the victim only survives if the schedule never let it reach a
       non-empty steal; either way conservation held above *)
    ignore !dead
  done

let test_kill_resolve_window () =
  (* a resolver dies in the commit window ([Sched_resolve_pending],
     pre-CAS): the promise must still be pending, and the recovery
     resolve — retrying through further kills, exactly what
     [Runtime.resolve_hard] does — must land exactly once.  500
     seeds. *)
  for seed = 1 to 500 do
    let st = make_promise_state () in
    let plan =
      Inject.Plan.make ~lethal:true ~points:[ Inject.Sched_resolve_pending ]
        ~seed:(Int64.of_int seed) ()
    in
    let was_killed = ref false in
    let resolver () =
      let rec resolve_hard r =
        match Promise.try_resolve st.p r with
        | won -> won
        | exception Inject.Killed _ -> resolve_hard r
      in
      match Promise.try_resolve st.p (Ok 42) with
      | won -> if won then incr st.wins
      | exception Inject.Killed _ ->
        (* the runtime's death handler: resolve with the death marker *)
        was_killed := true;
        if resolve_hard (Error 13) then incr st.wins
    in
    let awaiter () = ignore (Promise.add_waiter st.p (waiter st) : bool) in
    Inject.with_controller (Inject.Plan.decide plan) (fun () ->
        let stats = Sim.run ~seed:(Int64.of_int seed) [| resolver; awaiter; awaiter |] in
        if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed);
    promise_check st ~n_waiters:2 ~ident:(Printf.sprintf "resolve-kill seed %d" seed);
    (if !was_killed then
       match Promise.poll st.p with
       | Some (Error 13) -> ()
       | _ -> Alcotest.failf "seed %d: killed resolver's recovery value lost" seed)
  done

let test_park_storms () =
  (* parks (not kills) across all three scheduler windows: a parked
     fiber is descheduled mid-window; conservation and exactly-once
     must be schedule-independent.  300 seeds over the deque
     scenario. *)
  Inject.set_park (fun n -> for _ = 1 to min n 16 do Sim.yield () done);
  Fun.protect ~finally:(fun () -> Inject.set_park (fun n -> for _ = 1 to n do Domain.cpu_relax () done))
  @@ fun () ->
  for seed = 1 to 300 do
    let st = { d = Deque.create ~capacity:16 (); taken = ref [] } in
    let plan =
      Inject.Plan.make ~park:8
        ~points:
          [ Inject.Sched_steal_pending; Inject.Sched_park_pending; Inject.Sched_resolve_pending ]
        ~seed:(Int64.of_int seed) ()
    in
    Inject.with_controller (Inject.Plan.decide plan) (fun () ->
        let stats =
          Sim.run ~seed:(Int64.of_int seed)
            (deque_fibers st ~n_items:8 ~n_pops:4 ~n_thieves:2 ~attempts:6)
        in
        if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed);
    deque_check st ~n_items:8 ~ident:(Printf.sprintf "park seed %d" seed)
  done

(* ------------------------------------------------------------------ *)
(* Admission / shutdown / drain protocol (simulated)                  *)

(* The bug this guards against: a worker dequeues EMPTY, then observes
   [stopping], and exits while a racing submit's ticket sits queued —
   the submitter's promise would then never resolve.  Running the
   exact shipped protocol text ([Sched.Sched_protocol.Make]) on
   [Sim.Atomic_shim] makes every atomic access a preemption point, so
   the race windows are explored deterministically. *)

module SimQ = Sim.Queue

module SP =
  Sched.Sched_protocol.Make
    (Sim.Atomic_shim)
    (struct
      type 'a t = 'a SimQ.t
      type 'a handle = 'a SimQ.handle

      let enqueue = SimQ.enqueue
      let dequeue = SimQ.dequeue
    end)

(* One scenario: [n_sub] submitters race one shutdowner and one
   bounded worker shift.  Resolution counts are checked after the
   post-run worker finish + residual drain (both outside the
   scheduler, where sim yields are no-ops — modelling
   [Scheduler.shutdown] running after the interleaving settled). *)
type proto_state = {
  proto : SP.t;
  handles : SP.ticket SimQ.handle array;
  resolutions : int array; (* run+abort calls per submitter's ticket *)
  admissions : SP.admission option array;
}

let make_proto_state ~n_sub () =
  let q = SimQ.create ~patience:1 () in
  {
    proto = SP.create q;
    handles = Array.init (n_sub + 2) (fun _ -> SimQ.register q);
    resolutions = Array.make n_sub 0;
    admissions = Array.make n_sub None;
  }

let proto_fibers st ~n_sub =
  let submitter s () =
    let a =
      SP.submit st.proto st.handles.(s)
        ~run:(fun () -> st.resolutions.(s) <- st.resolutions.(s) + 1)
        ~abort:(fun () -> st.resolutions.(s) <- st.resolutions.(s) + 1)
    in
    st.admissions.(s) <- Some a
  in
  let shutdowner () = SP.begin_shutdown st.proto in
  let worker () =
    (* bounded shift: the systematic explorer cannot drive an
       unbounded idle loop to completion *)
    let budget = ref 60 in
    let continue = ref true in
    while !continue && !budget > 0 do
      decr budget;
      match SP.worker_step st.proto st.handles.(n_sub) with
      | SP.Exit -> continue := false
      | SP.Ran | SP.Stale | SP.Idle -> ()
    done
  in
  Array.append (Array.init n_sub submitter) [| shutdowner; worker |]

let proto_check st ~n_sub ~ident =
  (* after the interleaving: the shutdown path finishes the worker's
     shift and sweeps residuals, exactly like [Scheduler.shutdown] *)
  let continue = ref true in
  let budget = ref 10_000 in
  while !continue do
    decr budget;
    if !budget = 0 then Alcotest.failf "%s: worker never drained out" ident;
    match SP.worker_step st.proto st.handles.(n_sub) with
    | SP.Exit -> continue := false
    | SP.Ran | SP.Stale | SP.Idle -> ()
  done;
  ignore (SP.drain st.proto st.handles.(n_sub + 1));
  for s = 0 to n_sub - 1 do
    match st.admissions.(s) with
    | None -> Alcotest.failf "%s: submitter %d never returned" ident s
    | Some SP.Rejected ->
      if st.resolutions.(s) <> 0 then
        Alcotest.failf "%s: rejected ticket %d resolved %d times" ident s st.resolutions.(s)
    | Some (SP.Accepted | SP.Aborted) ->
      if st.resolutions.(s) <> 1 then
        Alcotest.failf "%s: ticket %d resolved %d times (want exactly 1)" ident s
          st.resolutions.(s)
  done

let test_protocol_explore () =
  (* systematic: every schedule with <= 2 forced preemptions of
     2 submitters vs shutdown vs worker *)
  let n_sub = 2 in
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:60_000 ~preemptions:2
      ~make_fibers:(fun () ->
        let st = make_proto_state ~n_sub () in
        state := Some st;
        proto_fibers st ~n_sub)
      ~check:(fun () -> proto_check (Option.get !state) ~n_sub ~ident:"explore")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules in protocol exploration";
  check Alcotest.bool "explored a non-trivial space" true (r.Sim.schedules > 100)

let test_protocol_seed_sweep () =
  (* randomized: deeper interleavings than the preemption bound *)
  let n_sub = 3 in
  for seed = 1 to 1_000 do
    let st = make_proto_state ~n_sub () in
    let stats = Sim.run ~seed:(Int64.of_int seed) (proto_fibers st ~n_sub) in
    if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed;
    proto_check st ~n_sub ~ident:(Printf.sprintf "seed %d" seed)
  done

(* ------------------------------------------------------------------ *)
(* Help while waiting: an owner awaiting a fan-in vs a thief          *)

(* The await path of the runtime on the shipped text: an owner pushes a
   two-child fan-in as [Sched_protocol] tickets onto its deque, then
   awaits each child through [SC.help], while one thief steals and runs
   what it can through the same claim.  Each child must run exactly
   once; [help] may answer [Some r] only once the awaited promise holds
   [r], and [None] only with the owner's deque empty — the state in
   which the runtime parks the awaiting fiber. *)
type help_state = {
  hd : SP.ticket Deque.t;
  kids : (int, int) Promise.t array;
  runs : int array;
  violations : string list ref;
}

let make_help_state () =
  {
    hd = Deque.create ~capacity:16 ();
    kids = Array.init 2 (fun _ -> Promise.create ());
    runs = Array.make 2 0;
    violations = ref [];
  }

let help_fibers st ~attempts =
  let violate fmt = Printf.ksprintf (fun m -> st.violations := m :: !(st.violations)) fmt in
  let child i =
    SP.ticket
      ~run:(fun () ->
        st.runs.(i) <- st.runs.(i) + 1;
        ignore (Promise.try_resolve st.kids.(i) (Ok i) : bool))
      ~abort:(fun () -> violate "child %d aborted" i)
  in
  let run tk = ignore (SP.claim_run tk : bool) in
  let owner () =
    for i = 0 to 1 do
      ignore (Deque.push st.hd (child i) : bool)
    done;
    for i = 0 to 1 do
      match SC.help st.hd st.kids.(i) run with
      | Some r ->
        if r <> Ok i || Promise.poll st.kids.(i) <> Some r then
          violate "help answered child %d before it resolved" i
      | None -> if Deque.length st.hd <> 0 then violate "help gave up on child %d with work queued" i
    done
  in
  let thief () =
    for _ = 1 to attempts do
      match Deque.steal st.hd with Some tk -> run tk | None -> ()
    done
  in
  [| owner; thief |]

let help_check st ~ident =
  (match !(st.violations) with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s: %s" ident v);
  Array.iteri
    (fun i n -> if n <> 1 then Alcotest.failf "%s: child %d ran %d times" ident i n)
    st.runs

let test_help_explore () =
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:200_000 ~preemptions:2
      ~make_fibers:(fun () ->
        let st = make_help_state () in
        state := Some st;
        help_fibers st ~attempts:3)
      ~check:(fun () -> help_check (Option.get !state) ~ident:"help vs steal")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules";
  check Alcotest.bool "space exhausted" true r.Sim.exhausted;
  check Alcotest.bool "non-trivial space" true (r.Sim.schedules > 100)

let test_help_seed_sweep () =
  for seed = 1 to 600 do
    let st = make_help_state () in
    let stats = Sim.run ~seed:(Int64.of_int seed) (help_fibers st ~attempts:4) in
    if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed;
    help_check st ~ident:(Printf.sprintf "seed %d" seed)
  done

(* ------------------------------------------------------------------ *)
(* Park / wake handshake (simulated)                                  *)

(* The eventcount idle workers sleep on ([Sched.Sched_park.Make]), the
   shipped text on the simsched shim.  Blocking is modelled as
   [Sim.block_until]: the sleeper is descheduled until the epoch moves
   or the pool stops, the predicate the production wait re-checks
   under its mutex.  A lost wakeup shows as a run that ends with the
   sleeper blocked and a ticket still queued. *)

module Sim_blocker = struct
  type t = unit

  let create () = ()
  let wait () ~until = Sim.block_until until
  let signal () = ()
  let broadcast () = ()
end

module PK = Sched.Sched_park.Make (Sim.Atomic_shim) (Inject.Enabled) (Sim_blocker)

type park_state = {
  pproto : SP.t;
  park : PK.t;
  phandles : SP.ticket SimQ.handle array;
  ran : int array; (* run+abort calls per submitter's ticket *)
  rejected : bool array; (* per submitter: the pool was already closed *)
  exited : bool array; (* per worker: left its loop *)
}

let make_park_state ~n_sub ~n_workers () =
  let q = SimQ.create ~patience:1 () in
  {
    pproto = SP.create q;
    park = PK.create ();
    phandles = Array.init (n_sub + n_workers + 1) (fun _ -> SimQ.register q);
    ran = Array.make n_sub 0;
    rejected = Array.make n_sub false;
    exited = Array.make n_workers false;
  }

(* The runtime's idle loop, minus the spin: look for work, and when
   there is none, park with one more look as the re-check.  A worker
   leaves once every ticket ran, or on [Exit]. *)
let park_worker st ~n_sub w () =
  let h = st.phandles.(n_sub + w) in
  let all_ran () = Array.for_all2 (fun n r -> n > 0 || r) st.ran st.rejected in
  let stopping () = SP.stopping st.pproto in
  let recheck () = match SP.worker_step st.pproto h with SP.Idle -> None | r -> Some r in
  let rec loop () =
    if not (all_ran ()) then
      match SP.worker_step st.pproto h with
      | SP.Exit -> ()
      | SP.Ran | SP.Stale -> loop ()
      | SP.Idle -> (
        match PK.park st.park ~stopping ~recheck with Some SP.Exit -> () | _ -> loop ())
  in
  loop ();
  st.exited.(w) <- true

let park_submitter st s () =
  let count () = st.ran.(s) <- st.ran.(s) + 1 in
  match SP.submit st.pproto st.phandles.(s) ~run:count ~abort:count with
  | SP.Accepted -> PK.wake st.park
  | SP.Rejected -> st.rejected.(s) <- true
  | SP.Aborted -> ()

let park_check st ~ident =
  Array.iteri
    (fun s n ->
      let want = if st.rejected.(s) then 0 else 1 in
      if n <> want then Alcotest.failf "%s: ticket %d resolved %d times (want %d)" ident s n want)
    st.ran

let test_park_explore_submit_vs_sleeper () =
  (* two submitters against a sleeper: every schedule with <= 2
     preemptions must run each ticket exactly once — the sleeper may
     not be left blocked while a ticket is queued *)
  let n_sub = 2 and n_workers = 1 in
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:200_000 ~preemptions:2
      ~make_fibers:(fun () ->
        let st = make_park_state ~n_sub ~n_workers () in
        state := Some st;
        Array.append
          (Array.init n_sub (park_submitter st))
          (Array.init n_workers (park_worker st ~n_sub)))
      ~check:(fun () -> park_check (Option.get !state) ~ident:"submit vs sleeper")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules in park exploration";
  check Alcotest.bool "space exhausted" true r.Sim.exhausted;
  check Alcotest.bool "explored a non-trivial space" true (r.Sim.schedules > 10_000)

let test_park_explore_shutdown_vs_sleeper () =
  (* shutdown against a sleeper: the broadcast must release it, and it
     must leave through [Exit] with the ticket resolved *)
  let state = ref None in
  let r =
    Sim.explore ~max_schedules:200_000 ~preemptions:2
      ~make_fibers:(fun () ->
        let st = make_park_state ~n_sub:1 ~n_workers:1 () in
        state := Some st;
        [|
          park_submitter st 0;
          (fun () ->
            SP.begin_shutdown st.pproto;
            PK.wake_all st.park);
          park_worker st ~n_sub:1 0;
        |])
      ~check:(fun () ->
        let st = Option.get !state in
        if not st.exited.(0) then Alcotest.fail "sleeper still blocked after shutdown";
        (* a ticket pushed after the worker's final EMPTY is the
           post-join drain's, exactly as in [Scheduler.shutdown] *)
        ignore (SP.drain st.pproto st.phandles.(2));
        park_check st ~ident:"shutdown vs sleeper")
      ()
  in
  if r.Sim.truncated_runs > 0 then Alcotest.fail "truncated schedules in park exploration";
  check Alcotest.bool "explored a non-trivial space" true (r.Sim.schedules > 100)

let test_park_window_kill () =
  (* a sleeper killed between registering and blocking
     ([Sched_park_pending]) must take its registration with it, or every
     later push would pay a wake for nobody; the survivor still runs
     every ticket *)
  let kills = ref 0 in
  for seed = 1 to 300 do
    let st = make_park_state ~n_sub:2 ~n_workers:2 () in
    let victim = 2 (* the first worker *) in
    let fibers =
      Array.append
        (Array.init 2 (park_submitter st))
        (Array.init 2 (fun w () -> try park_worker st ~n_sub:2 w () with Inject.Killed _ -> incr kills))
    in
    Inject.with_controller
      (fun p ->
        if p = Inject.Sched_park_pending && Sim.current_fiber () = victim then Inject.Die
        else Inject.Continue)
      (fun () ->
        let stats = Sim.run ~seed:(Int64.of_int seed) fibers in
        if stats.Sim.max_steps_hit then Alcotest.failf "seed %d: step limit" seed;
        (* only a worker still blocked in [park] may count as a sleeper *)
        if PK.sleepers st.park <> stats.Sim.blocked then
          Alcotest.failf "seed %d: %d sleeper registration(s), %d worker(s) blocked" seed
            (PK.sleepers st.park) stats.Sim.blocked);
    park_check st ~ident:(Printf.sprintf "park-kill seed %d" seed)
  done;
  check Alcotest.bool "the window was hit" true (!kills > 0)

(* ------------------------------------------------------------------ *)
(* Runtime on real domains                                            *)

module S = Sched.Scheduler

let with_sched ?(workers = 3) ?injector_cap f =
  let t = S.create ~workers ?injector_cap () in
  Fun.protect ~finally:(fun () -> S.shutdown t) (fun () -> f t)

let poll_until ?(timeout = 10.0) ~what p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match S.Promise.poll p with
    | Some r -> r
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.failf "%s: promise stranded" what
      else begin
        Domain.cpu_relax ();
        go ()
      end
  in
  go ()

let test_async_await () =
  with_sched (fun t ->
      let p = S.async t (fun () -> 21 * 2) in
      check Alcotest.bool "resolves" true (S.Promise.result p = Ok 42);
      let q = S.async t (fun () -> failwith "boom") in
      match S.Promise.result q with
      | Error (Failure m) -> check Alcotest.string "contained" "boom" m
      | _ -> Alcotest.fail "expected Failure")

let test_fan_out_fan_in () =
  (* each root spawns children from inside its fiber and awaits them:
     the await runs the children still in the worker's deque, and
     suspends the fiber on a stolen one while the worker moves on —
     with 3 workers and 40 roots this deadlocks in under a second
     unless suspension really releases the worker *)
  with_sched ~workers:3 (fun t ->
      let roots =
        List.init 40 (fun r ->
            S.async t (fun () ->
                let kids = List.init 4 (fun k -> S.async t (fun () -> (r * 10) + k)) in
                List.fold_left (fun acc kid -> acc + S.Promise.await kid) 0 kids))
      in
      let total =
        List.fold_left
          (fun acc p ->
            match S.Promise.result p with
            | Ok v -> acc + v
            | Error e -> Alcotest.failf "root failed: %s" (Printexc.to_string e))
          0 roots
      in
      (* sum over r<40, k<4 of 10r+k *)
      check Alcotest.int "fan-in total" ((10 * 4 * (40 * 39 / 2)) + (40 * 6)) total)

let test_spawn_recursion () =
  (* a spawn tree deeper than the worker count: fib via promises *)
  with_sched ~workers:2 (fun t ->
      let rec fib n = if n < 2 then n else S.Promise.await (S.async t (fun () -> fib (n - 1))) + fib (n - 2) in
      let p = S.async t (fun () -> fib 12) in
      check Alcotest.bool "fib 12" true (S.Promise.result p = Ok 144))

let test_yield () =
  with_sched ~workers:1 (fun t ->
      let log = Atomic.make 0 in
      let p =
        S.async t (fun () ->
            let before = Atomic.get log in
            S.yield ();
            Atomic.get log - before)
      in
      let q = S.async t (fun () -> Atomic.incr log) in
      ignore (S.Promise.result q);
      (* with one worker, p's yield let q run first iff q was queued
         behind it; either way both complete and yield returned *)
      match S.Promise.result p with
      | Ok d -> check Alcotest.bool "yield progressed" true (d >= 0)
      | Error e -> Alcotest.failf "yield task failed: %s" (Printexc.to_string e))

let test_micropools () =
  with_sched ~workers:2 (fun t ->
      S.add_pool t ~name:"io" ~workers:1;
      check Alcotest.(list string) "pool names" [ "default"; "io" ] (S.pool_names t);
      (* route by name from outside, and spawn-affinity from inside *)
      let io_tasks =
        List.init 20 (fun i -> S.async ~pool:"io" t (fun () -> i))
      in
      let cross =
        S.async t (fun () ->
            (* a default-pool fiber awaiting an io-pool promise *)
            let p = S.async ~pool:"io" t (fun () -> 7) in
            S.Promise.await p + 1)
      in
      List.iter (fun p -> ignore (S.Promise.result p)) io_tasks;
      check Alcotest.bool "cross-pool await" true (S.Promise.result cross = Ok 8);
      let obs = S.obs t in
      check Alcotest.int "two pools observed" 2 (List.length obs);
      let io = List.find (fun o -> o.S.name = "io") obs in
      check Alcotest.bool "io pool ran its tasks" true (io.S.tasks_completed >= 21);
      check Alcotest.int "io pool sized as asked" 1 io.S.workers;
      (* duplicate names are rejected *)
      check Alcotest.bool "duplicate rejected" true
        (try
           S.add_pool t ~name:"io" ~workers:1;
           false
         with Invalid_argument _ -> true))

let test_external_promise () =
  with_sched ~workers:2 (fun t ->
      let gate : int S.Promise.t = S.Promise.create () in
      let waiters =
        List.init 8 (fun i -> S.async t (fun () -> S.Promise.await gate + i))
      in
      (* nothing resolves until the app does *)
      Unix.sleepf 0.02;
      List.iter
        (fun p -> check Alcotest.bool "parked" true (S.Promise.poll p = None))
        waiters;
      check Alcotest.bool "first resolve wins" true (S.Promise.resolve gate 100);
      check Alcotest.bool "second resolve loses" false (S.Promise.resolve gate 999);
      List.iteri
        (fun i p ->
          check Alcotest.bool "woken with the winner" true (S.Promise.result p = Ok (100 + i)))
        waiters)

let test_shutdown_rejects_and_completes_backlog () =
  let t = S.create ~workers:1 () in
  let counter = Atomic.make 0 in
  let ps = List.init 200 (fun _ -> S.async t (fun () -> Atomic.incr counter)) in
  S.shutdown t;
  check Alcotest.int "backlog completed" 200 (Atomic.get counter);
  List.iter (fun p -> check Alcotest.bool "resolved" true (S.Promise.poll p <> None)) ps;
  try
    ignore (S.async t (fun () -> 2));
    Alcotest.fail "async after shutdown accepted"
  with Invalid_argument _ -> ()

let test_worker_death_recovery () =
  with_sched ~workers:2 (fun t ->
      let p = S.async t (fun () -> raise S.Abort_worker) in
      check Alcotest.bool "death resolves the promise" true
        (poll_until ~what:"abort task" p = Error S.Abort_worker);
      (* the survivor keeps the pool serving *)
      let ps = List.init 50 (fun i -> S.async t (fun () -> i)) in
      List.iteri
        (fun i p -> check Alcotest.bool "survivor serves" true (S.Promise.result p = Ok i))
        ps;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait_for_counters () =
        let o = List.hd (S.obs t) in
        if o.S.worker_deaths = 1 && o.S.live_workers = 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "death not observed: deaths=%d live=%d" o.S.worker_deaths
            o.S.live_workers
        else begin
          Domain.cpu_relax ();
          wait_for_counters ()
        end
      in
      wait_for_counters ())

let test_no_strand_after_all_workers_die () =
  (* the old pool's orphan test, through the scheduler: kill the only
     worker while a started fiber sits suspended on an external
     promise, queue more roots nobody will run, then resolve the
     external promise and shut down — every promise must resolve *)
  let t = S.create ~workers:1 () in
  let started = Atomic.make false in
  let gate : int S.Promise.t = S.Promise.create () in
  let suspended =
    S.async t (fun () ->
        Atomic.set started true;
        S.Promise.await gate + 1)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* the fiber is now parked on [gate]; kill the only worker *)
  let killer = S.async t (fun () -> raise S.Abort_worker) in
  check Alcotest.bool "killer resolved" true (poll_until ~what:"killer" killer = Error S.Abort_worker);
  (* orphans: accepted, but no worker will ever claim them *)
  let orphans = List.init 5 (fun i -> S.async t (fun () -> i)) in
  (* resolving the gate wakes the suspended fiber's continuation into a
     worker-less injector; the shutdown sweep must claim it (and the
     orphans) rather than strand anything *)
  check Alcotest.bool "gate resolves" true (S.Promise.resolve gate 41);
  S.shutdown t;
  List.iteri
    (fun i p ->
      match S.Promise.poll p with
      | Some (Error S.Shutdown) -> ()
      | Some (Ok _) -> () (* legal: the sweep ran it inline before workers died? no — but Ok only if a worker got it first *)
      | Some (Error e) -> Alcotest.failf "orphan %d: unexpected %s" i (Printexc.to_string e)
      | None -> Alcotest.failf "orphan %d stranded" i)
    orphans;
  (match S.Promise.poll suspended with
  | Some (Ok v) ->
    (* the continuation ran (inline or swept-after-resolve) *)
    check Alcotest.int "gate value flowed through" 42 v
  | Some (Error S.Shutdown) -> () (* or the sweep aborted it: unwound, not stranded *)
  | Some (Error e) -> Alcotest.failf "suspended fiber: unexpected %s" (Printexc.to_string e)
  | None -> Alcotest.fail "suspended fiber stranded");
  let o = List.hd (S.obs t) in
  check Alcotest.bool "sweep aborted something" true (o.S.aborted_promises >= 1)

let test_finished_task_releases_closure () =
  (* A consumed injector cell keeps pointing at its ticket until the
     segment is recycled.  The claim winner swaps the ticket's closures
     for a no-op before running, so a finished task's captured state
     can be collected while the cell still holds the ticket. *)
  with_sched ~workers:1 (fun t ->
      let watch = Weak.create 1 in
      let submit () =
        let buf = Bytes.make 4096 'x' in
        Weak.set watch 0 (Some buf);
        S.async t (fun () -> Bytes.length buf)
      in
      let p = (Sys.opaque_identity submit) () in
      check Alcotest.int "task ran" 4096 (S.Promise.await p);
      let segs = (S.injector_snapshot t "default").Obs.Snapshot.segments in
      check Alcotest.int "its injector segment is not recycled" 0 segs.Obs.Snapshot.reclaimed;
      Gc.full_major ();
      check Alcotest.bool "captured buffer collected" false (Weak.check watch 0))

let test_fib_never_suspends () =
  (* With one worker every awaited child is still in that worker's
     deque, so the await runs it inline and no fiber parks.  Without
     helping, each of fib 15's 986 awaits parked its fiber. *)
  with_sched ~workers:1 (fun t ->
      let rec fib n =
        if n < 2 then n else S.Promise.await (S.async t (fun () -> fib (n - 1))) + fib (n - 2)
      in
      check Alcotest.bool "fib 15" true (S.Promise.result (S.async t (fun () -> fib 15)) = Ok 610);
      check Alcotest.int "suspensions" 0 (S.suspensions t))

let test_deep_chain () =
  (* Each level spawns the next and awaits it.  On one worker, helping
     nests 10^5 inline runs, each on its own fiber stack; on two, steals
     mix parked levels into the chain. *)
  let depth = 100_000 in
  List.iter
    (fun workers ->
      with_sched ~workers (fun t ->
          let rec chain n =
            if n = 0 then 0 else 1 + S.Promise.await (S.async t (fun () -> chain (n - 1)))
          in
          match S.Promise.result (S.async t (fun () -> chain depth)) with
          | Ok d -> check Alcotest.int (Printf.sprintf "depth on %d worker(s)" workers) depth d
          | Error e -> Alcotest.failf "%d worker(s): %s" workers (Printexc.to_string e)))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* The default pool seen from outside: external submitters            *)

let test_exception_propagates () =
  (* a task's exception resolves its promise, and re-raises in a
     fiber awaiting it, so it reaches the outermost awaiter *)
  with_sched (fun t ->
      let failing = S.async t (fun () -> failwith "boom") in
      let parent = S.async t (fun () -> S.Promise.await failing + 1) in
      List.iter
        (fun p ->
          match S.Promise.result p with
          | Error (Failure msg) -> check Alcotest.string "exn payload" "boom" msg
          | Ok _ | Error _ -> Alcotest.fail "expected Failure")
        [ failing; parent ])

let test_exception_does_not_kill_worker () =
  with_sched ~workers:1 (fun t ->
      ignore (S.Promise.result (S.async t (fun () -> failwith "first")));
      (* the single worker must have survived to run this: *)
      check Alcotest.bool "worker alive" true (S.Promise.result (S.async t (fun () -> 7)) = Ok 7))

let test_poll () =
  with_sched (fun t ->
      let p = S.async t (fun () -> 5) in
      ignore (S.Promise.result p);
      check Alcotest.bool "poll after resolve" true (S.Promise.poll p = Some (Ok 5));
      let stalled =
        S.async t (fun () ->
            Unix.sleepf 0.05;
            1)
      in
      (* may or may not be done yet; both are legal, it must not hang *)
      ignore (S.Promise.poll stalled);
      ignore (S.Promise.result stalled))

let test_submitters_from_many_domains () =
  with_sched ~workers:2 (fun t ->
      let submitters =
        List.init 3 (fun s ->
            Domain.spawn (fun () -> List.init 100 (fun i -> S.async t (fun () -> (s * 100) + i))))
      in
      let promises = List.concat_map Domain.join submitters in
      let total =
        List.fold_left
          (fun acc p -> match S.Promise.result p with Ok v -> acc + v | Error _ -> acc)
          0 promises
      in
      (* sum over s in 0..2, i in 0..99 of (100 s + i) *)
      check Alcotest.int "all results" ((300 * 100) + (3 * 4950)) total)

let test_shutdown_under_load () =
  (* many rounds of: submitter domains racing a shutdown.  Every
     promise returned by a successful [async] must resolve — with the
     task's value or with Error Shutdown, never nothing. *)
  for round = 1 to 300 do
    let t = S.create ~workers:1 () in
    let submitter s =
      Domain.spawn (fun () ->
          let rec grab i acc =
            if i >= 8 then acc
            else
              match S.async t (fun () -> (s * 100) + i) with
              | p -> grab (i + 1) (p :: acc)
              | exception Invalid_argument _ -> acc (* scheduler closed: legal *)
          in
          grab 0 [])
    in
    let d1 = submitter 1 and d2 = submitter 2 in
    (* race the shutdown against the submissions *)
    S.shutdown t;
    let promises = Domain.join d1 @ Domain.join d2 in
    List.iteri
      (fun i p ->
        match poll_until ~what:(Printf.sprintf "round %d promise %d" round i) p with
        | Ok _ | Error S.Shutdown -> ()
        | Error e -> Alcotest.failf "round %d: unexpected error %s" round (Printexc.to_string e))
      promises;
    check Alcotest.int
      (Printf.sprintf "round %d: no live workers after shutdown" round)
      0 (List.hd (S.obs t)).S.live_workers
  done

(* ------------------------------------------------------------------ *)
(* Storm build: seeded kill plans over queue + scheduler windows      *)

module SI = Sched.Scheduler_inject

let test_storm_kill_fan_out () =
  (* the acceptance drill, sized for CI: fan-out/fan-in through the
     storm build while a seeded plan kills victims at every queue and
     scheduler window.  Whatever dies, no promise may be stranded:
     every root resolves Ok, or with the death/shutdown marker. *)
  let n_roots = 40 and n_kids = 4 in
  for seed = 1 to 12 do
    let t = SI.create ~workers:4 () in
    (* every subtask's promise too, filled in by the roots that ran *)
    let kids_of = Array.make n_roots [] in
    let plan = Inject.Plan.make ~lethal:true ~seed:(Int64.of_int (seed * 7919)) () in
    (* victims are the worker domains; the driver (this domain) must
       survive to audit, exactly like the repro storm drivers *)
    let driver = Domain.self () in
    let decide p = if Domain.self () = driver then Inject.Continue else Inject.Plan.decide plan p in
    Inject.with_controller decide (fun () ->
        let roots =
          List.init n_roots (fun r ->
              SI.async t (fun () ->
                  let kids =
                    List.init n_kids (fun k -> SI.async t (fun () -> (r * n_kids) + k))
                  in
                  kids_of.(r) <- kids;
                  List.fold_left
                    (fun acc kid ->
                      match SI.Promise.result kid with Ok v -> acc + v | Error _ -> acc)
                    0 kids))
        in
        (* give the storm a moment, then shut down: the sweep must
           resolve whatever the (possibly dead) workers left behind *)
        let deadline = Unix.gettimeofday () +. 5.0 in
        let rec settle () =
          if List.for_all (fun p -> SI.Promise.poll p <> None) roots then ()
          else if Unix.gettimeofday () > deadline then ()
          else begin
            Unix.sleepf 0.001;
            settle ()
          end
        in
        settle ();
        SI.shutdown t;
        check Alcotest.int
          (Printf.sprintf "seed %d: no sleeper registration left" seed)
          0 (SI.sleepers t);
        List.iteri
          (fun i p ->
            match SI.Promise.poll p with
            | None ->
              Alcotest.failf "seed %d: root %d stranded (%s)" seed i (Inject.Plan.describe plan)
            | Some (Ok _) | Some (Error SI.Shutdown) | Some (Error SI.Abort_worker)
            | Some (Error (Inject.Killed _)) ->
              ()
            | Some (Error e) ->
              Alcotest.failf "seed %d: root %d unexpected %s" seed i (Printexc.to_string e))
          roots;
        Array.iteri
          (fun r kids ->
            List.iteri
              (fun k p ->
                if not (SI.Promise.is_resolved p) then
                  Alcotest.failf "seed %d: subtask %d of root %d stranded (%s)" seed k r
                    (Inject.Plan.describe plan))
              kids)
          kids_of)
  done

let test_storm_park_fan_out () =
  (* same shape, parks instead of kills: victims stall in the windows
     but nothing dies, so every root must complete Ok with the exact
     fan-in sum *)
  Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
  Fun.protect ~finally:(fun () -> Inject.set_park (fun n -> for _ = 1 to n do Domain.cpu_relax () done))
  @@ fun () ->
  let n_roots = 30 and n_kids = 4 in
  for seed = 1 to 8 do
    let t = SI.create ~workers:4 () in
    let plan = Inject.Plan.make ~park:500 ~seed:(Int64.of_int (seed * 104729)) () in
    Inject.with_controller (Inject.Plan.decide plan) (fun () ->
        let roots =
          List.init n_roots (fun r ->
              SI.async t (fun () ->
                  let kids =
                    List.init n_kids (fun k -> SI.async t (fun () -> (r * n_kids) + k))
                  in
                  List.fold_left (fun acc kid -> acc + SI.Promise.await kid) 0 kids))
        in
        let expect r = List.init n_kids (fun k -> (r * n_kids) + k) |> List.fold_left ( + ) 0 in
        List.iteri
          (fun r p ->
            match SI.Promise.result p with
            | Ok v -> check Alcotest.int (Printf.sprintf "seed %d root %d" seed r) (expect r) v
            | Error e -> Alcotest.failf "seed %d root %d: %s" seed r (Printexc.to_string e))
          roots;
        SI.shutdown t;
        check Alcotest.int
          (Printf.sprintf "seed %d: no sleeper registration left" seed)
          0 (SI.sleepers t))
  done

(* ------------------------------------------------------------------ *)
(* The registry: which promises it must hold, and what scrubbing costs *)

(* A root spawns a child that parks on an external gate, then awaits
   the child, on one worker of the storm build.  Returns once both
   fibers are parked: the child has started and the worker has gone
   back to sleep. *)
let parked_on_gate () =
  let t = SI.create ~workers:1 () in
  let gate : int SI.Promise.t = SI.Promise.create () in
  let started = Atomic.make false and child = Atomic.make None in
  let root =
    SI.async t (fun () ->
        let c =
          SI.async t (fun () ->
              Atomic.set started true;
              SI.Promise.await gate + 1)
        in
        Atomic.set child (Some c);
        SI.Promise.await c + 1)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Atomic.get started && SI.sleepers t > 0) do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the fan-in never parked";
    Unix.sleepf 0.001
  done;
  (t, gate, root, Option.get (Atomic.get child))

let check_shut_down what p =
  match SI.Promise.poll p with
  | Some (Error SI.Shutdown) -> ()
  | Some (Ok v) -> Alcotest.failf "%s: Ok %d, want Error Shutdown" what v
  | Some (Error e) -> Alcotest.failf "%s: %s, want Error Shutdown" what (Printexc.to_string e)
  | None -> Alcotest.failf "%s stranded" what

let test_registry_lost_continuation () =
  (* The test domain resolves the gate, so the child's continuation
     takes the injector route; killing this domain at that enqueue's
     first window loses it.  The child registered its promise when it
     parked, so shutdown still resolves it, and the root with it. *)
  let t, gate, root, child = parked_on_gate () in
  let me = Domain.self () in
  let killed = ref false in
  Inject.with_controller
    (fun p ->
      if p = Inject.Enq_fast_after_faa && Domain.self () = me && not !killed then begin
        killed := true;
        Inject.Die
      end
      else Inject.Continue)
    (fun () -> try ignore (SI.Promise.resolve gate 41 : bool) with Inject.Killed _ -> ());
  check Alcotest.bool "the continuation's enqueue was killed" true !killed;
  SI.shutdown t;
  check_shut_down "child" child;
  check_shut_down "root" root

let test_registry_parked_forever () =
  (* Nobody resolves the gate: the parked child is reachable only
     through the registry. *)
  let t, _gate, root, child = parked_on_gate () in
  SI.shutdown t;
  check_shut_down "child" child;
  check_shut_down "root" root

let test_registry_scrub_linear () =
  (* A burst of external roots against a held worker: every entry
     stays pending, so rescanning them all at a fixed period examines
     about n^2/128 entries.  Scrubbing once the registrations since the
     last scrub reach its survivors keeps the total linear. *)
  let n = 100_000 in
  let t = SI.create ~workers:1 () in
  let held = Atomic.make false and release = Atomic.make false in
  let hold =
    SI.async t (fun () ->
        Atomic.set held true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get held) do
    Domain.cpu_relax ()
  done;
  let roots = Array.init n (fun i -> SI.async t (fun () -> i)) in
  Atomic.set release true;
  check Alcotest.bool "held root" true (SI.Promise.result hold = Ok ());
  Array.iteri (fun i p -> if SI.Promise.result p <> Ok i then Alcotest.failf "root %d" i) roots;
  SI.shutdown t;
  (* the registrations: the held root and the burst, all external *)
  let registered = n + 1 and examined = SI.scrub_examined t in
  if examined > 4 * registered then
    Alcotest.failf "scrubs examined %d entries for %d registrations" examined registered

let () =
  Alcotest.run "sched"
    [
      ( "deque",
        [
          Alcotest.test_case "sequential semantics" `Quick test_deque_sequential;
          Alcotest.test_case "last element: exhaustive" `Quick test_deque_explore_last_element;
          Alcotest.test_case "steal vs pop: exhaustive" `Quick test_deque_explore_steal_vs_pop;
          Alcotest.test_case "steal vs pop: 600-seed sweep" `Quick test_deque_seed_sweep;
        ] );
      ( "promise",
        [
          Alcotest.test_case "resolve race: exhaustive" `Quick test_promise_explore_resolve_race;
          Alcotest.test_case "resolve vs await: 600-seed sweep" `Quick test_promise_seed_sweep;
        ] );
      ( "help",
        [
          Alcotest.test_case "owner helps vs thief: exhaustive" `Quick test_help_explore;
          Alcotest.test_case "owner helps vs thief: 600-seed sweep" `Quick test_help_seed_sweep;
        ] );
      ( "kill storms",
        [
          Alcotest.test_case "steal window kills" `Quick test_kill_steal_window;
          Alcotest.test_case "resolve window kills + recovery" `Quick test_kill_resolve_window;
          Alcotest.test_case "park storms at sched points" `Quick test_park_storms;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "submit vs shutdown vs worker, explored" `Quick test_protocol_explore;
          Alcotest.test_case "seeded interleaving sweep" `Quick test_protocol_seed_sweep;
        ] );
      ( "park",
        [
          Alcotest.test_case "submit vs sleeper, explored" `Quick
            test_park_explore_submit_vs_sleeper;
          Alcotest.test_case "shutdown vs sleeper, explored" `Quick
            test_park_explore_shutdown_vs_sleeper;
          Alcotest.test_case "kill in the park window" `Quick test_park_window_kill;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "async / await" `Quick test_async_await;
          Alcotest.test_case "fan-out fan-in" `Quick test_fan_out_fan_in;
          Alcotest.test_case "spawn recursion (fib)" `Quick test_spawn_recursion;
          Alcotest.test_case "yield" `Quick test_yield;
          Alcotest.test_case "micropools" `Quick test_micropools;
          Alcotest.test_case "external promises" `Quick test_external_promise;
          Alcotest.test_case "shutdown: rejects + completes backlog" `Quick
            test_shutdown_rejects_and_completes_backlog;
          Alcotest.test_case "worker death recovery" `Quick test_worker_death_recovery;
          Alcotest.test_case "no strand after all workers die" `Quick
            test_no_strand_after_all_workers_die;
          Alcotest.test_case "finished task's closure is collectable" `Quick
            test_finished_task_releases_closure;
          Alcotest.test_case "fib 15 on one worker never suspends" `Quick test_fib_never_suspends;
          Alcotest.test_case "10^5-deep spawn/await chain" `Quick test_deep_chain;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "worker survives exception" `Quick test_exception_does_not_kill_worker;
          Alcotest.test_case "poll" `Quick test_poll;
          Alcotest.test_case "many submitters" `Quick test_submitters_from_many_domains;
        ] );
      ( "registry",
        [
          Alcotest.test_case "continuation lost to a killed enqueue" `Quick
            test_registry_lost_continuation;
          Alcotest.test_case "child parked on a gate nobody resolves" `Quick
            test_registry_parked_forever;
          Alcotest.test_case "scrub work linear in registrations" `Quick test_registry_scrub_linear;
        ] );
      ( "adversity",
        [ Alcotest.test_case "shutdown under load strands nothing" `Quick test_shutdown_under_load ]
      );
      ( "storms",
        [
          Alcotest.test_case "seeded kill storm (fan-out)" `Quick test_storm_kill_fan_out;
          Alcotest.test_case "seeded park storm (fan-out)" `Quick test_storm_park_fan_out;
        ] );
    ]
