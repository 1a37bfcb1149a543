(** The zero-cost-when-disabled instrumentation hook.

    The queue algorithm ([Wfqueue_algo.Make]) — and the instrumentable
    baselines — take a [Probe.S] as a functor argument next to their
    atomic primitives.  Every event-tier record site in the algorithm
    text is written as

    {[ if P.enabled then c.field <- c.field + 1 ]}

    [enabled] is an immutable compile-time constant of the functor
    instantiation, not runtime state: there is no ref to read, no
    closure to call, and no per-queue or per-handle flag on the
    operation paths.  A [Disabled] instantiation ([Wfqueue]) keeps the
    exact PR-2 hot path — the only residue is the never-taken branch
    on the constant, and the disabled build's pair cost measured
    within noise of the probe-free hot path it replaced.  An
    [Enabled] instantiation ([Wfqueue_obs]) records the full event
    tier of {!Counters}.

    The functor-over-flag design was chosen over a runtime flag (a
    load plus a data-dependent branch per record site on the hot path)
    and over function-valued hooks (an indirect call per site, plus an
    allocation per installed hook).  It also means the model checker
    exercises the instrumented text: [Simsched.Sim] instantiates the
    algorithms with [Enabled]. *)

module type S = sig
  val enabled : bool
  (** Compile-time constant: [true] compiles the event-tier record
      sites in; [false] leaves the bare hot path. *)
end

module Disabled : S
(** [enabled = false] — production instantiations. *)

module Enabled : S
(** [enabled = true] — telemetry and model-checking instantiations. *)
