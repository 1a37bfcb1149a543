type measurement = {
  threads : int;
  ops : int;
  elapsed_s : float;
  injected_ns : float;
  mops : float;
  mops_excl_work : float;
}

let max_threads = 120 (* OCaml caps live domains at 128; leave headroom *)

let expected_injected_ns (spec : Workload.spec) ~ops =
  match spec.work_ns with
  | None -> 0.0
  | Some (lo, hi) -> float_of_int ops *. (float_of_int (lo + hi) /. 2.0)

let run_once (instance : Queues.instance) (spec : Workload.spec) ~threads =
  if threads < 1 || threads > max_threads then
    invalid_arg (Printf.sprintf "Runner.run_once: threads must be in [1, %d]" max_threads);
  (* Calibrate outside the timed region. *)
  ignore (Primitives.Spin_work.calibrate ());
  let start_barrier = Sync.Barrier.create (threads + 1) in
  let done_counts = Array.make threads 0 in
  let workers =
    List.init threads (fun thread ->
        Domain.spawn (fun () ->
            let ops = instance.register () in
            let body = Workload.thread_body spec ~thread ops ~threads in
            Sync.Barrier.await start_barrier;
            done_counts.(thread) <- body ();
            (* Retire the worker's handle (one O(1) call after the
               measured ops): the steady-state loop reuses one
               instance across iterations, and without this every
               iteration would add [threads] dead handles to the
               helping ring, so later iterations would measure
               ring-scan overhead instead of the queue. *)
            ops.release ()))
  in
  Sync.Barrier.await start_barrier;
  let t0 = Primitives.Clock.now () in
  List.iter Domain.join workers;
  let elapsed_s = Primitives.Clock.now () -. t0 in
  let ops = Array.fold_left ( + ) 0 done_counts in
  let injected_ns = expected_injected_ns spec ~ops in
  let mops = float_of_int ops /. elapsed_s /. 1e6 in
  (* The spins of [threads] domains run in parallel on up to
     [recommended_domain_count] cores, so their wall cost is their sum
     over that many; clamp to keep at least 10% of elapsed time in case
     calibration drifted. *)
  let spinners = min threads (Domain.recommended_domain_count ()) in
  let work_wall_s = injected_ns /. 1e9 /. float_of_int spinners in
  let op_time_s = Float.max (elapsed_s -. work_wall_s) (elapsed_s *. 0.1) in
  let mops_excl_work = float_of_int ops /. op_time_s /. 1e6 in
  { threads; ops; elapsed_s; injected_ns; mops; mops_excl_work }

let measure ?(quick = false) (factory : Queues.factory) (spec : Workload.spec) ~threads =
  let invocations = if quick then 3 else 10 in
  let max_iterations = if quick then 5 else 20 in
  let window = if quick then 3 else 5 in
  let one_invocation () =
    let instance = factory.make () in
    Stats.Steady_state.run_invocation ~window ~max_iterations (fun () ->
        (run_once instance spec ~threads).mops_excl_work)
  in
  Stats.Steady_state.across_invocations ~invocations one_invocation
