(** The instrumentation hook, chosen per build.

    The queue algorithm ([Wfqueue_algo.Make]) — and the instrumentable
    baselines — take a [Probe.S] as a functor argument next to their
    atomic primitives.  Every event-tier record site in the algorithm
    text is written as

    {[ if P.enabled then c.field <- c.field + 1 ]}

    [enabled] is an immutable value of the functor argument, with no
    per-queue or per-handle flag and no closure on the operation
    paths.  A [Disabled] instantiation ([Wfqueue]) records no event
    and allocates nothing for the probe.  It is not free: the functor
    is applied at run time, and OCaml 5.1.1 without flambda does not
    specialise it, so each record site still loads [enabled] from the
    functor argument and branches on it (read in the [-S] output of
    [Wfqueue_algo]; DESIGN.md §9).  An [Enabled] instantiation
    ([Wfqueue_obs]) records the full event tier of {!Counters}.

    The functor-over-flag design was chosen over function-valued hooks
    (an indirect call per site, plus an allocation per installed
    hook), and it keeps one algorithm text for every build: the model
    checker exercises the instrumented text, since [Simsched.Sim]
    instantiates the algorithms with [Enabled]. *)

module type S = sig
  val enabled : bool
  (** [true] runs the event-tier record sites; [false] skips them,
      at the cost of the load and branch of each site's gate. *)
end

module Disabled : S
(** [enabled = false] — production instantiations. *)

module Enabled : S
(** [enabled = true] — telemetry and model-checking instantiations. *)
