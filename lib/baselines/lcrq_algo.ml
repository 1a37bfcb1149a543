(* LCRQ as a functor over atomic primitives (rings included), so the
   model checker (simsched) can drive it on simulated atomics. *)

module Make (A : Primitives.Atomic_prims.S) = struct
module C = Crq_algo.Make (A)
type 'a t = { head : 'a C.t A.t; tail : 'a C.t A.t; ring_size : int }
type 'a handle = unit

let create ?(ring_size = 4096) () =
  let first = C.create ~size:ring_size in
  { head = A.make_contended first; tail = A.make_contended first; ring_size }

let register _t = ()

let enqueue t () v =
  let rec loop () =
    let crq = A.get t.tail in
    match A.get (C.next crq) with
    | Some n ->
      (* the tail pointer lags; help swing it *)
      ignore (A.compare_and_set t.tail crq n);
      loop ()
    | None ->
      (match C.enqueue crq v with
      | `Ok -> ()
      | `Closed ->
        let fresh = C.create ~size:t.ring_size in
        (match C.enqueue fresh v with
        | `Ok -> ()
        | `Closed -> assert false (* a private fresh ring accepts *));
        if A.compare_and_set (C.next crq) None (Some fresh) then
          ignore (A.compare_and_set t.tail crq fresh)
        else loop ())
  in
  loop ()

let dequeue t () =
  let rec loop () =
    let crq = A.get t.head in
    match C.dequeue crq with
    | Some v -> Some v
    | None -> (
      match A.get (C.next crq) with
      | None -> None
      | Some n -> (
        (* a successor exists, so [crq] is closed; but an enqueue may
           have completed between our dequeue and the close — check
           once more before discarding the ring. *)
        match C.dequeue crq with
        | Some v -> Some v
        | None ->
          ignore (A.compare_and_set t.head crq n);
          loop ()))
  in
  loop ()

let ring_count t =
  let rec count crq acc =
    match A.get (C.next crq) with Some n -> count n (acc + 1) | None -> acc + 1
  in
  count (A.get t.head) 0

end
