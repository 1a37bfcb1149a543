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

type ops = { enqueue : int array -> unit; dequeue : int array -> int; retire : unit -> unit }

(* values are non-negative, so [min_int] is free to mean empty *)
let single ~enqueue ~dequeue_or ~retire =
  {
    enqueue = Array.iter enqueue;
    dequeue =
      (fun buf ->
        let v = dequeue_or min_int in
        if v = min_int then 0
        else begin
          buf.(0) <- v;
          1
        end);
    retire;
  }

type subject = {
  batch : int;
  register : unit -> ops;
  invariant : settled:bool -> string option;
  footprint : Format.formatter -> unit;
}

let subject ?(batch = 1) ?(invariant = fun ~settled:_ -> None) ?(footprint = fun _ -> ())
    register =
  { batch; register; invariant; footprint }

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
   its batch commits. *)
let strands_nothing = function
  | Inject.Enq_batch_after_faa -> true
  | p -> Inject.class_of p = Inject.Enqueue

let audit ~ops ~batch ~committed ~outcomes values =
  let domains = Array.length committed in
  let seen = Array.make (domains * ops) 0 in
  let owned v =
    v >= 0
    && v / ops < domains
    &&
    let d = v / ops and i = v mod ops in
    i < committed.(d) || match outcomes.(d) with Killed _ -> i < committed.(d) + batch | _ -> false
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
  let allowed = kills * batch in
  let bad (n, first) what =
    if n > 0 then [ Printf.sprintf "%d %s (first: %d)" n what first ] else []
  in
  let violations =
    bad !dups "value(s) dequeued more than once"
    @ bad !aliens "alien value(s), neither committed nor a killed domain's in-flight batch"
    @
    if !missing > allowed then
      [
        Printf.sprintf
          "%d committed value(s) missing, but %d dequeue-side kill(s) x batch %d allow %d"
          !missing kills batch allowed;
      ]
    else []
  in
  { missing = !missing; allowed; violations }

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
  let buf = Array.make s.batch 0 in
  let rec go acc =
    match o.dequeue buf with
    | 0 -> acc
    | n -> go (List.rev_append (Array.to_list (Array.sub buf 0 n)) acc)
  in
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
    (* one enqueue and one dequeue buffer per domain (a short tail batch
       gets its own): the loop allocates nothing per operation, so the
       harness's minor collections do not pace the subject *)
    let ebuf = Array.make s.batch 0 and buf = Array.make s.batch 0 in
    let take out n =
      for j = 0 to n - 1 do
        got.(d) <- out.(j) :: got.(d)
      done
    in
    if d < producers then begin
      let i = ref 0 in
      while !i < ops do
        let k = min s.batch (ops - !i) in
        let vs = if k = s.batch then ebuf else Array.make k 0 in
        for j = 0 to k - 1 do
          vs.(j) <- (d * ops) + !i + j
        done;
        o.enqueue vs;
        i := !i + k;
        committed.(d) <- !i;
        (match s.invariant ~settled:false with Some _ as b -> Atomic.set breach b | None -> ());
        if pairs then begin
          let out = if k = s.batch then buf else Array.make k 0 in
          take out (o.dequeue out)
        end
      done
    end
    else
      while
        match o.dequeue buf with
        | 0 ->
          Domain.cpu_relax ();
          Atomic.get producing > 0
        | n ->
          take buf n;
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
           (audit ~ops ~batch:s.batch ~committed ~outcomes
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
