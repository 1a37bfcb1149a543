type _ Effect.t += Yield : unit Effect.t | Block : (unit -> bool) -> unit Effect.t

let clock = ref 0
let now () = !clock

(* Yield if a scheduler is installed; no-op otherwise so that setup
   code can run queue operations outside [run]. *)
let yield () = try Effect.perform Yield with Effect.Unhandled _ -> ()

(* Index of the fiber currently scheduled by [exec], -1 outside a run.
   Exposed so fault-injection controllers can target "fiber k is the
   victim" — the injector's decision function runs inside the victim's
   own steps, where this is exact. *)
let running = ref (-1)
let current_fiber () = !running

(* A blocked fiber is not a candidate until its predicate holds; the
   scheduler evaluates it between steps, outside every fiber, where
   [Atomic_shim] accesses do not yield. *)
let block_until p = Effect.perform (Block p)

module Atomic_shim : Wfq.Atomic_prims.S = struct
  (* Single-domain cells: the scheduler interleaves fibers only at
     yields, so plain mutation between yields is atomic by
     construction. *)
  type 'a t = { mutable v : 'a }

  let make v = { v }

  let get r =
    yield ();
    r.v

  let set r x =
    yield ();
    r.v <- x

  let compare_and_set r expected desired =
    yield ();
    if r.v == expected then begin
      r.v <- desired;
      true
    end
    else false

  let fetch_and_add r n =
    yield ();
    let old = r.v in
    r.v <- old + n;
    old

  let cpu_relax () = yield ()

  (* Padding is a physical-layout concern with no semantic content, so
     the simulated atomics implement it as the identity: the text the
     model checker explores is exactly the text that ships padded. *)
  let make_contended = make

  module Counters = struct
    type nonrec t = int t array

    let make ~len ~init =
      if len < 0 then invalid_arg "Sim.Atomic_shim.Counters.make: negative length";
      Array.init len (fun _ -> { v = init })

    let length = Array.length

    (* Every access yields, exactly like the scalar primitives, so a
       counter access is a preemption point the scheduler controls. *)
    let get c i =
      yield ();
      c.(i).v

    let set c i x =
      yield ();
      c.(i).v <- x

    let fetch_and_add c i n =
      yield ();
      let old = c.(i).v in
      c.(i).v <- old + n;
      old

    let compare_and_set c i expected desired =
      yield ();
      if c.(i).v = expected then begin
        c.(i).v <- desired;
        true
      end
      else false
  end
end

module Queue = Wfq.Wfqueue_algo.Make (Atomic_shim) (Obs.Probe.Enabled) (Inject.Enabled)
module Ms_queue = Baselines.Msqueue_algo.Make (Atomic_shim) (Obs.Probe.Enabled)
module Lcrq = Baselines.Lcrq_algo.Make (Atomic_shim) (Obs.Probe.Enabled)
module Sched_core = Sched.Sched_algo.Make (Atomic_shim) (Obs.Probe.Enabled) (Inject.Enabled)

type stats = { scheduling_decisions : int; max_steps_hit : bool; blocked : int }

exception Fiber_failure of int * exn

type fiber_state =
  | Ready of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Blocked of (unit -> bool) * (unit, unit) Effect.Deep.continuation
  | Finished

(* Core loop shared by the random driver and the systematic explorer:
   [pick ~last candidates] chooses the next fiber (an absolute index
   into [fibers]) given the previously scheduled fiber and the live
   set. *)
let exec ~max_steps ~(pick : last:int option -> candidates:int list -> int) fibers =
  clock := 0;
  let states = Array.map (fun f -> Ready f) fibers in
  let live = ref (Array.length fibers) in
  let steps = ref 0 in
  let current = ref (-1) in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          states.(!current) <- Finished;
          decr live);
      exnc = (fun e -> raise (Fiber_failure (!current, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                states.(!current) <- Paused k)
          | Block p ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                states.(!current) <- Blocked (p, k))
          | _ -> None);
    }
  in
  let candidates () =
    let cs = ref [] in
    for i = Array.length states - 1 downto 0 do
      match states.(i) with
      | Finished -> ()
      | Blocked (p, _) -> if p () then cs := i :: !cs
      | Ready _ | Paused _ -> cs := i :: !cs
    done;
    !cs
  in
  let last = ref None in
  let truncated = ref false in
  let stuck = ref false in
  (* reset [running] even when a fiber's exception aborts the run *)
  Fun.protect ~finally:(fun () -> running := -1)
  @@ fun () ->
  while !live > 0 && not (!truncated || !stuck) do
    if !steps >= max_steps then truncated := true
    else
      match candidates () with
      | [] -> stuck := true (* every live fiber is blocked: nothing can wake them *)
      | candidates -> (
        incr steps;
        incr clock;
        let i = pick ~last:!last ~candidates in
        last := Some i;
        current := i;
        running := i;
        match states.(i) with
        | Ready f ->
          (* if it yields, the handler stores the continuation; if it
             returns, retc marks it finished *)
          Effect.Deep.match_with f () handler
        | Paused k | Blocked (_, k) ->
          states.(i) <- Ready (fun () -> assert false);
          (* placeholder overwritten by the handler on next capture *)
          Effect.Deep.continue k ()
        | Finished -> assert false)
  done;
  {
    scheduling_decisions = !steps;
    max_steps_hit = !truncated;
    blocked = (if !stuck then !live else 0);
  }

let run ?(seed = 1L) ?(max_steps = 10_000_000) fibers =
  let rng = Primitives.Splitmix64.create seed in
  let pick ~last:_ ~candidates =
    List.nth candidates (Primitives.Splitmix64.next_int rng (List.length candidates))
  in
  exec ~max_steps ~pick fibers

type exploration = {
  schedules : int;
  exhausted : bool; (* the whole bounded space was covered *)
  truncated_runs : int; (* runs that hit max_steps *)
}

let explore ?(max_schedules = 100_000) ?(max_steps = 100_000) ?(preemptions = 2) ~make_fibers
    ~check () =
  (* Depth-first enumeration of preemption-bounded schedules.  A
     scheduling step is a choice point only when preempting is both
     possible (budget left) and meaningful (another fiber is live);
     option 0 always means "stay on the current fiber" when it is
     live, so the zero-prefix path is the non-preemptive schedule.
     Each schedule is replayed from scratch (fresh fibers), which the
     deterministic scheduler makes exact. *)
  let prefix = ref [||] in
  let schedules = ref 0 in
  let truncated_runs = ref 0 in
  let exhausted = ref false in
  let continue_exploring = ref true in
  while !continue_exploring && !schedules < max_schedules do
    incr schedules;
    (* replay with forced choices from [prefix], recording arities *)
    let taken = ref [] (* (chosen_option, arity) in reverse step order *) in
    let step = ref 0 in
    let budget = ref preemptions in
    let pick ~last ~candidates =
      let options =
        match last with
        | Some l when List.mem l candidates ->
          if !budget > 0 then l :: List.filter (fun c -> c <> l) candidates else [ l ]
        | Some _ | None -> candidates
      in
      let arity = List.length options in
      let choice =
        if !step < Array.length !prefix then (!prefix).(!step)
        else 0
      in
      let choice = if choice >= arity then arity - 1 else choice in
      taken := (choice, arity) :: !taken;
      incr step;
      let fiber = List.nth options choice in
      (match last with
      | Some l when List.mem l candidates && fiber <> l -> decr budget
      | Some _ | None -> ());
      fiber
    in
    let stats = exec ~max_steps ~pick (make_fibers ()) in
    if stats.max_steps_hit then incr truncated_runs;
    check ();
    (* backtrack: bump the deepest choice with an untried option *)
    let arr = Array.of_list (List.rev !taken) in
    let rec backtrack k =
      if k < 0 then begin
        exhausted := true;
        continue_exploring := false
      end
      else begin
        let chosen, arity = arr.(k) in
        if chosen + 1 < arity then
          prefix :=
            Array.init (k + 1) (fun i -> if i = k then chosen + 1 else fst arr.(i))
        else backtrack (k - 1)
      end
    in
    backtrack (Array.length arr - 1)
  done;
  { schedules = !schedules; exhausted = !exhausted; truncated_runs = !truncated_runs }
