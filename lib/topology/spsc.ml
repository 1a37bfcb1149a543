(* Production SPSC build: hardware atomics, probe and injector
   compiled out. *)

include Spsc_algo.Make (Primitives.Atomic_prims.Real) (Obs.Probe.Disabled) (Inject.Disabled)
