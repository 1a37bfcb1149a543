(* The storm build: the algorithm of [Wfqueue_algo] on hardware
   atomics with both the observability probe and the fault injector
   compiled in.  It is the subject of [repro inject] and [repro
   bounded] and of the real-domain smokes in test/test_inject.ml, all
   run by [Harness.Storm], to demonstrate the paper's actual
   guarantee: with K of N domains stalled or killed at any injection
   point, every other domain's operations still complete, and the
   telemetry counters show the helping that made it true.

   Same algorithm text as [Wfqueue] — only the [Obs.Probe] and
   [Inject] instantiations differ — and the injector is transparent
   until a controller is installed ([Inject.install]), so this build
   doubles as a sanity check that an idle injector perturbs nothing. *)

include Wfqueue_algo.Make (Atomic_prims.Real) (Obs.Probe.Enabled) (Inject.Enabled)
