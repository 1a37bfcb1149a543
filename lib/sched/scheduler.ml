(* The production scheduler: the runtime of [Runtime.Make] with both
   the observability probe and the fault injector compiled out, on the
   production wait-free queue as the global injector.  The zero-word
   rows of test/test_alloc.ml pin that the two disabled tiers add no
   allocation to the queue hot path this build drives. *)

include Runtime.Make (Obs.Probe.Disabled) (Inject.Disabled) (Wfq.Wfqueue)
