(** SCQ (Nikolaev, DISC 2019 / arXiv:1908.04511): a lock-free
    circular queue over cycle-tagged ring entries, in the indirect
    configuration — two index rings (free and allocated) around a
    payload plane, so ring entries stay single-word CAS-able for
    arbitrary payload types.

    The memory-bounded counterpoint to the paper's queue: where the
    wait-free queue allocates segments without bound under a traffic
    spike, SCQ's footprint is fixed at creation ([2^order] slots plus
    two rings of twice that), and a full queue pushes back on the
    producer instead of growing.  Threshold-based EMPTY detection
    (3n-1 attempts after the last enqueue) bounds dequeuers chasing a
    moving tail.  Lock-free, not wait-free — wCQ (arXiv:2201.02179)
    is the wait-free extension. *)

type 'a t
type 'a handle

val create : ?order:int -> unit -> 'a t
(** Capacity [2^order] values; [order] defaults to [12] (4096, the
    LCRQ ring size used in the paper's evaluation). *)

val capacity : 'a t -> int
val register : 'a t -> 'a handle
val enqueue : 'a t -> 'a handle -> 'a -> unit
(** Spins (with [cpu_relax]) while the queue is full. *)

val try_enqueue : 'a t -> 'a handle -> 'a -> bool
(** [false] instead of blocking when the queue is full — the SCQ
    analogue of the WF queue's bounded-mode surface. *)

val dequeue : 'a t -> 'a handle -> 'a option

val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
(** Allocation-free dequeue: returns the default when empty. *)

val approx_length : 'a t -> int
