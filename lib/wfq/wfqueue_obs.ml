(* The instrumented queue: the algorithm of [Wfqueue_algo] on hardware
   atomics with the observability probe compiled in, so the event tier
   of [Obs.Counters] (CAS failures, cells skipped, helping) is
   recorded in addition to the path tier.  Same algorithm text as
   [Wfqueue] — only the [Obs.Probe] instantiation differs — so its
   path counters, linearizability, and wait-freedom are the ones the
   test suite checks on the production build.

   Used by the telemetry harness ([Harness.Telemetry] and the
   [repro stats] subcommand); the disabled build ([Wfqueue]) records
   none of it, though each gate still costs it a load and a branch
   (see [Wfqueue_algo]'s header). *)

include Wfqueue_algo.Make (Atomic_prims.Real) (Obs.Probe.Enabled) (Inject.Disabled)
