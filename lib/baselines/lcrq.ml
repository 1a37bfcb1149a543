(* Hardware-atomics instantiation; see lcrq.mli. *)
include Lcrq_algo.Make (Primitives.Atomic_prims.Real)
