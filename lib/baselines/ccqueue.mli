(** CC-Queue (Fatourou & Kallimanis, PPoPP 2012): a blocking queue
    built from two {!Sync.Ccsynch} combining instances — one
    serializing enqueues over the list tail, one serializing dequeues
    over the list head — over a dummy-headed linked list (the
    structural split of Michael and Scott's two-lock queue, with each
    lock replaced by combining).

    Combining gives low synchronization traffic but no non-blocking
    progress: a descheduled combiner stalls its whole side, which is
    the weakness the paper's evaluation exposes under
    oversubscription. *)

type 'a t
type 'a handle

val create : ?max_combine:int -> unit -> 'a t
val register : 'a t -> 'a handle
val enqueue : 'a t -> 'a handle -> 'a -> unit
val dequeue : 'a t -> 'a handle -> 'a option
