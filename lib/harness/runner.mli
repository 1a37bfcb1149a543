(** Executing one benchmark configuration across domains.

    Mirrors the framework the paper evaluates with (§5.1): spawn the
    worker threads, rendezvous on a barrier so spawn latency is
    outside the timed region, run every thread's share of the
    workload, and report aggregate throughput.

    {b Host adaptation} (DESIGN.md §2.1): the host has fewer cores
    than the paper's machines, so spins of injected "think time"
    compete for cores with queue work.  The paper excludes think time
    from its numbers; we do the same by estimating the wall-clock cost
    of the injected spins (their sum divided by
    [min threads (Domain.recommended_domain_count ())], the number of
    domains that can spin at once) and reporting both raw and
    work-excluded throughput. *)

type measurement = {
  threads : int;
  ops : int; (* operations actually performed *)
  elapsed_s : float;
  injected_ns : float; (* expected total think time across threads *)
  mops : float; (* raw throughput, Mops/s *)
  mops_excl_work : float; (* throughput with think time excluded *)
}

val run_once : Queues.instance -> Workload.spec -> threads:int -> measurement
(** One timed iteration.  Spawns [threads] domains (the main domain
    only coordinates).  [threads] must be within domain limits
    (checked). *)

val measure :
  ?quick:bool ->
  Queues.factory ->
  Workload.spec ->
  threads:int ->
  Stats.Steady_state.report
(** Full methodology: by default 10 invocations (fresh queue each) of
    up to 20 iterations with steady-state detection, 95% confidence
    interval over invocation means of work-excluded Mops/s.  [quick]
    drops to 3 invocations of up to 5 iterations with a window of 3,
    for smoke-level runs. *)

val max_threads : int
(** Largest [threads] value accepted (OCaml domain limit headroom). *)
