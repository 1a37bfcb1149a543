(* Hardware-atomics instantiation; see msqueue.mli. *)
include Msqueue_algo.Make (Primitives.Atomic_prims.Real)
