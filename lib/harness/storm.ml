(* Fault-injection storms, written once: the victim controller, the
   domain runner, the conservation audit and the report (storm.mli). *)

let sleep_park n = Unix.sleepf (float_of_int n *. 1e-6)

let with_controller ~park ~victim plan f =
  Inject.reset_stats ();
  Inject.set_park park;
  Inject.with_controller
    (fun p -> if victim () then Inject.Plan.decide plan p else Inject.Continue)
    f

type faults = { seed : int; park : int; kill : bool; victims : int option }

let plan f =
  if f.kill || f.park > 0 then
    Some (Inject.Plan.make ~park:f.park ~lethal:f.kill ~seed:(Int64.of_int f.seed) ())
  else None

let describe f =
  match plan f with Some p -> Inject.Plan.describe p | None -> "none (clean throughput run)"

let victims f ~domains =
  match (plan f, f.victims) with
  | None, _ -> 0
  | Some _, Some k -> min k domains
  | Some _, None -> max 1 (domains / 2)

type ops = { enqueue : int -> unit; dequeue_or : int -> int; retire : unit -> unit }

(* values are non-negative, so [min_int] is free to mean empty *)
let empty = min_int

type subject = {
  register : unit -> ops;
  invariant : settled:bool -> string option;
  footprint : Format.formatter -> unit;
}

let subject ?(invariant = fun ~settled:_ -> None) ?(footprint = fun _ -> ()) register =
  { register; invariant; footprint }

type shape = Pairs | Split of int
type outcome = Running | Completed | Killed of Inject.point | Raised of exn

let outcome_name = function
  | Running -> "still running"
  | Completed -> "completed"
  | Killed p -> "killed @ " ^ Inject.point_name p
  | Raised e -> "raised " ^ Printexc.to_string e

let deadline_s = 20.

let await cond =
  let stop = Int64.add (Primitives.Clock.now_ns ()) (Int64.of_float (deadline_s *. 1e9)) in
  let rec go () =
    cond ()
    || Primitives.Clock.now_ns () < stop
       && begin
         Unix.sleepf 0.001;
         go ()
       end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The audit                                                          *)

type audit = { missing : int; allowed : int; violations : string list }

(* An enqueue-side kill strands no committed value: it lands before
   its enqueue commits. *)
let strands_nothing p = Inject.class_of p = Inject.Enqueue

let audit ~ops ~committed ~outcomes values =
  let domains = Array.length committed in
  let seen = Array.make (domains * ops) 0 in
  let owned v =
    v >= 0
    && v / ops < domains
    &&
    let d = v / ops and i = v mod ops in
    i < committed.(d) || match outcomes.(d) with Killed _ -> i = committed.(d) | _ -> false
  in
  (* count and first example of each kind of bad value *)
  let dups = ref (0, 0) and aliens = ref (0, 0) in
  let note r v = r := (fst !r + 1, if fst !r = 0 then v else snd !r) in
  List.iter
    (fun v ->
      if not (owned v) then note aliens v
      else begin
        if seen.(v) = 1 then note dups v;
        seen.(v) <- seen.(v) + 1
      end)
    values;
  let missing = ref 0 in
  Array.iteri
    (fun d n ->
      for i = 0 to n - 1 do
        if seen.((d * ops) + i) = 0 then incr missing
      done)
    committed;
  let kills =
    List.fold_left
      (fun n p -> if strands_nothing p then n else n + (Inject.stats p).Inject.kills)
      0 Inject.all_points
  in
  let bad (n, first) what =
    if n > 0 then [ Printf.sprintf "%d %s (first: %d)" n what first ] else []
  in
  let violations =
    bad !dups "value(s) dequeued more than once"
    @ bad !aliens "alien value(s), neither committed nor a killed domain's in-flight value"
    @
    if !missing > kills then
      [
        Printf.sprintf "%d committed value(s) missing, but %d dequeue-side kill(s) allow %d"
          !missing kills kills;
      ]
    else []
  in
  { missing = !missing; allowed = kills; violations }

(* ------------------------------------------------------------------ *)
(* The runner                                                         *)

type result = {
  ops : int;
  victims : int;
  producers : int;
  outcomes : outcome array;
  committed : int array;
  dequeued : int array;
  drained : int;
  elapsed_s : float;
  invariant : string option;
  audit : audit option;  (** [None] when the deadline passed *)
}

let drain (s : subject) =
  let o = s.register () in
  let rec go acc = match o.dequeue_or empty with v when v = empty -> acc | v -> go (v :: acc) in
  let vs = go [] in
  o.retire ();
  vs

let run (s : subject) shape ~domains ~ops faults =
  let victims = victims faults ~domains in
  let producers, pairs = match shape with Pairs -> (domains, true) | Split n -> (n, false) in
  let outcomes = Array.make domains Running in
  let committed = Array.make domains 0 in
  let got = Array.make domains [] in
  let breach = Atomic.make None in
  let producing = Atomic.make producers in
  let finished = Atomic.make 0 in
  let is_victim = Domain.DLS.new_key (fun () -> false) in
  let work d o =
    let take v = if v <> empty then got.(d) <- v :: got.(d) in
    if d < producers then
      for i = 0 to ops - 1 do
        o.enqueue ((d * ops) + i);
        committed.(d) <- i + 1;
        (match s.invariant ~settled:false with Some _ as b -> Atomic.set breach b | None -> ());
        if pairs then take (o.dequeue_or empty)
      done
    else
      while
        match o.dequeue_or empty with
        | v when v = empty ->
          Domain.cpu_relax ();
          Atomic.get producing > 0
        | v ->
          take v;
          true
      do
        ()
      done
  in
  let body d () =
    if d < victims then Domain.DLS.set is_victim true;
    (try
       let o = s.register () in
       (* retire on every exit path: a crashed victim's handle must not
          pin reclamation, and its pending request stays helpable *)
       Fun.protect ~finally:o.retire (fun () -> work d o);
       outcomes.(d) <- Completed
     with
    | Inject.Killed p -> outcomes.(d) <- Killed p
    | e -> outcomes.(d) <- Raised e);
    if d < producers then Atomic.decr producing;
    Atomic.incr finished
  in
  let t0 = Primitives.Clock.now_ns () in
  let storm () =
    let ds = List.init domains (fun d -> Domain.spawn (body d)) in
    (* past the deadline the stragglers are left spinning: a wedged
       domain cannot be joined *)
    let settled = await (fun () -> Atomic.get finished = domains) in
    if settled then List.iter Domain.join ds;
    settled
  in
  let settled =
    match plan faults with
    | None -> storm ()
    | Some p ->
      with_controller ~park:sleep_park ~victim:(fun () -> Domain.DLS.get is_victim) p storm
  in
  let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
  let drained = if settled then drain s else [] in
  {
    ops;
    victims;
    producers;
    outcomes;
    committed;
    dequeued = Array.map List.length got;
    drained = List.length drained;
    elapsed_s;
    invariant =
      (match Atomic.get breach with
      | Some _ as b -> b
      | None -> if settled then s.invariant ~settled:true else None);
    audit =
      (if settled then
         Some
           (audit ~ops ~committed ~outcomes
              (Array.fold_left (fun acc l -> List.rev_append l acc) drained got))
       else None);
  }

(* ------------------------------------------------------------------ *)
(* The report                                                         *)

let violations r =
  let count f = Array.fold_left (fun n o -> if f o then n + 1 else n) 0 r.outcomes in
  let raised = count (function Raised _ -> true | _ -> false) in
  List.concat
    [
      (match r.audit with
      | Some _ -> []
      | None ->
        [
          Printf.sprintf "deadline: %d domain(s) still running after %.0f s"
            (count (function Running -> true | _ -> false))
            deadline_s;
        ]);
      (if raised > 0 then [ Printf.sprintf "%d domain(s) raised an exception" raised ] else []);
      Option.to_list r.invariant;
      (match r.audit with Some a -> a.violations | None -> []);
    ]

let finish = function
  | [] ->
    print_endline "\nOK: no violations.";
    0
  | vs ->
    print_newline ();
    List.iter (Printf.printf "VIOLATION: %s\n") vs;
    Printf.printf "FAIL -- replay: %s\n%!"
      (String.concat " " (Filename.basename Sys.argv.(0) :: List.tl (Array.to_list Sys.argv)));
    1

let report (s : subject) r =
  print_newline ();
  Array.iteri
    (fun d o ->
      Printf.printf "  domain %2d  %-8s %-6s %-34s %-20s %7d dequeued\n" d
        (if d >= r.producers then "consumer"
         else if r.producers = Array.length r.outcomes then "pairs"
         else "producer")
        (if d < r.victims then "victim" else "")
        (outcome_name o)
        (if d < r.producers then Printf.sprintf "%d/%d enqueued" r.committed.(d) r.ops else "")
        r.dequeued.(d))
    r.outcomes;
  let dequeued = Array.fold_left ( + ) 0 r.dequeued in
  Printf.printf "  %d dequeued + %d drained in %.2fs (%.3f Mops enq+deq)%s\n" dequeued r.drained
    r.elapsed_s
    (float_of_int (Array.fold_left ( + ) dequeued r.committed) /. r.elapsed_s /. 1e6)
    (match r.audit with
    | Some a -> Printf.sprintf "; %d missing (%d allowed)" a.missing a.allowed
    | None -> "");
  Format.printf "@.%t@." s.footprint;
  if (Inject.total_stats ()).Inject.hits > 0 then
    Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
  finish (violations r)
