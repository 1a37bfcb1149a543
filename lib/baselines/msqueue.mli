(** Michael & Scott's lock-free queue (PODC 1996), the classic
    CAS-based non-blocking queue the paper uses as a baseline.

    Both hot spots (head and tail) are updated with CAS in a retry
    loop, so under contention most CASes fail — the "CAS retry
    problem" that motivates FAA-based designs.  Failed CASes back off
    exponentially (per-handle state), as in the implementations used
    in the paper's evaluation. *)

type 'a t
type 'a handle

val create : unit -> 'a t
val register : 'a t -> 'a handle
val enqueue : 'a t -> 'a handle -> 'a -> unit
val dequeue : 'a t -> 'a handle -> 'a option
val approx_length : 'a t -> int
(** Counts nodes by walking the list; O(n), for tests. *)
