(* The production queue: the algorithm of [Wfqueue_algo] running on
   hardware atomics.  See wfqueue.mli for the API and the paper
   mapping; see DESIGN.md for the port notes. *)

include Wfqueue_algo.Make (Atomic_prims.Real) (Obs.Probe.Disabled) (Inject.Disabled)
