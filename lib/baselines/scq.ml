(* Hardware-atomics instantiation; see scq.mli. *)
include Scq_algo.Make (Primitives.Atomic_prims.Real)
