(* See inject.mli. *)

type point =
  | Enq_fast_after_faa
  | Enq_slow_published
  | Enq_slow_pre_commit
  | Deq_fast_after_faa
  | Deq_slow_published
  | Help_enq_pre_claim
  | Help_deq_pre_close
  | Cleanup_token_held
  | Hazard_published
  | Seg_pool_acquire
  | Seg_pool_release
  | Sched_steal_pending
  | Sched_park_pending
  | Sched_resolve_pending

type cls = Enqueue | Dequeue | Helping | Cleanup | Hazard | Pool | Sched

(* New points append at the end of [all_points]: [Plan.make] draws its
   per-point ordinals in this order, so appending keeps the arming of
   every pre-existing point identical for a given seed (storm replays
   recorded against older baselines stay valid); removing a point
   re-arms every later one. *)
let all_points =
  [
    Enq_fast_after_faa;
    Enq_slow_published;
    Enq_slow_pre_commit;
    Deq_fast_after_faa;
    Deq_slow_published;
    Help_enq_pre_claim;
    Help_deq_pre_close;
    Cleanup_token_held;
    Hazard_published;
    Seg_pool_acquire;
    Seg_pool_release;
    Sched_steal_pending;
    Sched_park_pending;
    Sched_resolve_pending;
  ]

let index = function
  | Enq_fast_after_faa -> 0
  | Enq_slow_published -> 1
  | Enq_slow_pre_commit -> 2
  | Deq_fast_after_faa -> 3
  | Deq_slow_published -> 4
  | Help_enq_pre_claim -> 5
  | Help_deq_pre_close -> 6
  | Cleanup_token_held -> 7
  | Hazard_published -> 8
  | Seg_pool_acquire -> 9
  | Seg_pool_release -> 10
  | Sched_steal_pending -> 11
  | Sched_park_pending -> 12
  | Sched_resolve_pending -> 13

let n_points = List.length all_points

let class_of = function
  | Enq_fast_after_faa | Enq_slow_published | Enq_slow_pre_commit -> Enqueue
  | Deq_fast_after_faa | Deq_slow_published -> Dequeue
  | Help_enq_pre_claim | Help_deq_pre_close -> Helping
  | Cleanup_token_held -> Cleanup
  | Hazard_published -> Hazard
  | Seg_pool_acquire | Seg_pool_release -> Pool
  | Sched_steal_pending | Sched_park_pending | Sched_resolve_pending -> Sched

let point_name = function
  | Enq_fast_after_faa -> "enq_fast_after_faa"
  | Enq_slow_published -> "enq_slow_published"
  | Enq_slow_pre_commit -> "enq_slow_pre_commit"
  | Deq_fast_after_faa -> "deq_fast_after_faa"
  | Deq_slow_published -> "deq_slow_published"
  | Help_enq_pre_claim -> "help_enq_pre_claim"
  | Help_deq_pre_close -> "help_deq_pre_close"
  | Cleanup_token_held -> "cleanup_token_held"
  | Hazard_published -> "hazard_published"
  | Seg_pool_acquire -> "seg_pool_acquire"
  | Seg_pool_release -> "seg_pool_release"
  | Sched_steal_pending -> "sched_steal_pending"
  | Sched_park_pending -> "sched_park_pending"
  | Sched_resolve_pending -> "sched_resolve_pending"

let class_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Helping -> "helping"
  | Cleanup -> "cleanup"
  | Hazard -> "hazard"
  | Pool -> "pool"
  | Sched -> "sched"

let points_of_class c = List.filter (fun p -> class_of p = c) all_points

type action = Continue | Park of int | Die

exception Killed of point

let () =
  Printexc.register_printer (function
    | Killed p -> Some (Printf.sprintf "Inject.Killed(%s)" (point_name p))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Controller                                                         *)

(* The controller is read on every hit of an [Enabled] build, possibly
   from many domains at once, so it lives in a padded atomic; the park
   implementation is swapped only by test harnesses, before the storm
   starts. *)
let controller : (point -> action) option Atomic.t =
  Primitives.Padding.make_padded_atomic None

let default_park n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let park_impl : (int -> unit) Atomic.t = Primitives.Padding.make_padded_atomic default_park
let set_park f = Atomic.set park_impl f

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)

type stats = { hits : int; parks : int; kills : int }

(* Strided so that two points' counters never share a cache line
   (victims hammer exactly one point while survivors hit others). *)
module C = Primitives.Atomic_prims.Real.Counters

let hit_counts = C.make ~len:n_points ~init:0
let park_counts = C.make ~len:n_points ~init:0
let kill_counts = C.make ~len:n_points ~init:0

let stats p =
  let i = index p in
  { hits = C.get hit_counts i; parks = C.get park_counts i; kills = C.get kill_counts i }

let total_stats () =
  List.fold_left
    (fun acc p ->
      let s = stats p in
      { hits = acc.hits + s.hits; parks = acc.parks + s.parks; kills = acc.kills + s.kills })
    { hits = 0; parks = 0; kills = 0 }
    all_points

let reset_stats () =
  for i = 0 to n_points - 1 do
    C.set hit_counts i 0;
    C.set park_counts i 0;
    C.set kill_counts i 0
  done

let pp_stats ppf () =
  List.iter
    (fun p ->
      let s = stats p in
      if s.hits > 0 then
        Format.fprintf ppf "  %-22s hits %8d  parks %4d  kills %4d@." (point_name p) s.hits
          s.parks s.kills)
    all_points

(* ------------------------------------------------------------------ *)
(* The functor argument                                               *)

module type S = sig
  val enabled : bool
  val hit : point -> unit
end

module Disabled = struct
  let enabled = false
  let hit _ = ()
end

module Enabled = struct
  let enabled = true

  let hit p =
    match Atomic.get controller with
    | None -> ()
    | Some decide -> (
      let i = index p in
      ignore (C.fetch_and_add hit_counts i 1);
      match decide p with
      | Continue -> ()
      | Park n ->
        ignore (C.fetch_and_add park_counts i 1);
        (Atomic.get park_impl) n
      | Die ->
        ignore (C.fetch_and_add kill_counts i 1);
        raise (Killed p))
end

let install decide = Atomic.set controller (Some decide)
let remove () = Atomic.set controller None

let with_controller decide f =
  install decide;
  Fun.protect ~finally:remove f

(* ------------------------------------------------------------------ *)
(* Seeded plans                                                       *)

module Plan = struct
  type arming = { action : action; arm_at : int; fired : bool Atomic.t; seen : int Atomic.t }

  type t = {
    seed : int64;
    park : int;
    lethal : bool;
    armings : arming option array; (* indexed by [index point] *)
  }

  let make ?(park = 200) ?(lethal = false) ?(arm_window = 4) ?(points = all_points) ~seed () =
    if park < 0 then invalid_arg "Inject.Plan.make: negative park";
    if arm_window < 1 then invalid_arg "Inject.Plan.make: arm_window < 1";
    let rng = Primitives.Splitmix64.create seed in
    let armings = Array.make n_points None in
    (* Draw in the fixed [all_points] order so the plan depends only on
       the seed and the arming set, not on the order callers list
       points in. *)
    List.iter
      (fun p ->
        let arm_at = Primitives.Splitmix64.next_int rng arm_window in
        if List.mem p points then
          armings.(index p) <-
            Some
              {
                action = (if lethal then Die else Park park);
                arm_at;
                fired = Atomic.make false;
                seen = Atomic.make 0;
              })
      all_points;
    { seed; park; lethal; armings }

  let decide t p =
    match t.armings.(index p) with
    | None -> Continue
    | Some a ->
      let ordinal = Atomic.fetch_and_add a.seen 1 in
      if ordinal = a.arm_at && Atomic.compare_and_set a.fired false true then a.action
      else Continue

  let describe t =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "seed=0x%Lx %s" t.seed
         (if t.lethal then "die" else Printf.sprintf "park=%d" t.park));
    Array.iteri
      (fun i a ->
        match a with
        | None -> ()
        | Some a ->
          Buffer.add_string b
            (Printf.sprintf " %s@%d" (point_name (List.nth all_points i)) a.arm_at))
      t.armings;
    Buffer.contents b
end
