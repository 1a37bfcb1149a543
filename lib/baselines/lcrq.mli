(** LCRQ (Morrison & Afek, PPoPP 2013): a lock-free linked list of
    {!Crq} rings, managed like the MS-Queue list.

    The paper's strongest prior baseline: it avoids the CAS retry
    problem on the hot indices by using FAA, but each slot update
    still needs CAS2 and the queue is only lock-free, not wait-free.
    The ring size used in the paper's evaluation is [2^12]. *)

type 'a t
type 'a handle

val create : ?ring_size:int -> unit -> 'a t
(** [ring_size] defaults to [4096] ([2^12], as in the paper). *)

val register : 'a t -> 'a handle
val enqueue : 'a t -> 'a handle -> 'a -> unit
val dequeue : 'a t -> 'a handle -> 'a option

val ring_count : 'a t -> int
(** Number of CRQs currently linked, for tests of ring turnover. *)
