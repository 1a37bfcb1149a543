(* The Michael-Scott algorithm as a functor over atomic primitives,
   so the model checker (simsched) can drive it on simulated atomics;
   [Msqueue] instantiates it on hardware atomics. *)

module Make (A : Primitives.Atomic_prims.S) = struct
type 'a node = { value : 'a option; next : 'a node option A.t }

(* head points at the current dummy; values live in its successors. *)
type 'a t = { head : 'a node A.t; tail : 'a node A.t }

type 'a handle = { backoff : Primitives.Backoff.t }

let create () =
  let dummy = { value = None; next = A.make None } in
  (* head and tail are the two contended words of the whole structure;
     unpadded they are four heap words apart, i.e. one cache line. *)
  { head = A.make_contended dummy; tail = A.make_contended dummy }

let register _t = { backoff = Primitives.Backoff.create () }

let enqueue t h v =
  let n = { value = Some v; next = A.make None } in
  let rec loop () =
    let tail = A.get t.tail in
    let next = A.get tail.next in
    if tail == A.get t.tail then begin
      match next with
      | None ->
        if A.compare_and_set tail.next None (Some n) then
          (* linearized; swinging the tail is best-effort *)
          ignore (A.compare_and_set t.tail tail n)
        else begin
          Primitives.Backoff.backoff h.backoff;
          loop ()
        end
      | Some n' ->
        (* help a lagging enqueuer swing the tail *)
        ignore (A.compare_and_set t.tail tail n');
        loop ()
    end
    else loop ()
  in
  loop ();
  Primitives.Backoff.reset h.backoff

let dequeue t h =
  let rec loop () =
    let head = A.get t.head in
    let tail = A.get t.tail in
    let next = A.get head.next in
    if head == A.get t.head then begin
      match next with
      | None -> None (* empty *)
      | Some n ->
        if head == tail then begin
          (* tail is lagging behind a completed enqueue *)
          ignore (A.compare_and_set t.tail tail n);
          loop ()
        end
        else begin
          let v = n.value in
          if A.compare_and_set t.head head n then v
          else begin
            Primitives.Backoff.backoff h.backoff;
            loop ()
          end
        end
    end
    else loop ()
  in
  let v = loop () in
  Primitives.Backoff.reset h.backoff;
  v

let approx_length t =
  let rec count node acc =
    match A.get node.next with Some n -> count n (acc + 1) | None -> acc
  in
  count (A.get t.head) 0

end
