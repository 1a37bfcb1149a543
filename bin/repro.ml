(* Command-line driver regenerating every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index),
   plus the live storm drivers for the subsystems built on the queue.

     repro table1                    platform inventory
     repro fig2 --benchmark pairs    Figure 2 throughput sweep
     repro table2                    WF-0 execution-path breakdown
     repro ablation-*                design-choice ablations
     repro latency                   per-operation latency tails
     repro stats                     fast/slow-path telemetry
     repro inject                    fault-injection storm on the queue
     repro shard                     sharded-router batch storm
     repro bounded                   bounded-memory spike storm
     repro topology                  specialized-variant role storms
     repro sched                     task-scheduler fan-out/fan-in storm
     repro list | repro all          enumerate queues / run everything

   All benchmarks print fixed-width tables; --csv PATH additionally
   saves the rows.  An unknown subcommand exits with status 2. *)

open Cmdliner

let csv_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

let quick_arg =
  let doc =
    "Quick methodology: 3 invocations of up to 5 iterations instead of the paper's 10x20, and a \
     smaller default operation budget."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Every --threads goes through this converter, so a count outside
   the runner's domain limit is a usage error (exit 2), not an
   uncaught exception from inside a run. *)
let thread_count =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 && n <= Harness.Runner.max_threads -> Ok n
        | _ ->
          Error
            (Printf.sprintf "invalid thread count %S: expected an integer in [1, %d]" s
               Harness.Runner.max_threads)),
      Format.pp_print_int )

let threads_arg ~default =
  let doc = "Comma-separated list of thread counts." in
  Arg.(value & opt (list thread_count) default & info [ "threads" ] ~docv:"N,N,..." ~doc)

let total_ops_arg =
  let doc = "Total operations per iteration (default: paper's 10^7; quick mode: 4x10^5)." in
  Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc)

let save csv t = Option.iter (fun path -> Harness.Report.save_csv t ~path) csv

let table1_cmd =
  let run csv = save csv (Harness.Experiments.table1 ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Table 1: experimental platforms") Term.(const run $ csv_arg)

let bench_arg =
  let doc = "Benchmark: 'pairs' (enqueue-dequeue pairs) or 'half' (50%-enqueues)." in
  Arg.(value & opt string "pairs" & info [ "benchmark"; "b" ] ~docv:"KIND" ~doc)

let queues_arg =
  let doc =
    "Comma-separated queue names to run (default: the Figure 2 set). Known names: see \
     'repro list'."
  in
  Arg.(value & opt (some (list string)) None & info [ "queues" ] ~docv:"Q,Q,..." ~doc)

let fig2_cmd =
  let run csv quick threads total_ops bench queues =
    match Harness.Workload.kind_of_string bench with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok kind ->
      let queues =
        Option.map
          (List.map (fun n ->
               match Harness.Queues.find n with
               | Some f -> f
               | None ->
                 Printf.eprintf "unknown queue %S; try 'repro list'\n" n;
                 exit 2))
          queues
      in
      save csv (Harness.Experiments.figure2 ~quick ~threads ?queues ?total_ops kind)
  in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Figure 2: throughput of all queues across thread counts")
    Term.(
      const run $ csv_arg $ quick_arg
      $ threads_arg ~default:[ 1; 2; 4; 8; 16 ]
      $ total_ops_arg $ bench_arg $ queues_arg)

let table2_cmd =
  let run csv quick threads total_ops =
    save csv (Harness.Experiments.table2 ~quick ~threads ?total_ops ())
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Table 2: WF-0 execution-path breakdown under 50%-enqueues")
    Term.(const run $ csv_arg $ quick_arg $ threads_arg ~default:[ 4; 8; 16; 32 ] $ total_ops_arg)

let one_thread_arg =
  let doc = "Thread count for the ablation." in
  Arg.(value & opt thread_count 8 & info [ "threads" ] ~docv:"N" ~doc)

let ablation cmd_name doc f =
  let run csv quick threads total_ops = save csv (f ~quick ~threads ?total_ops ()) in
  Cmd.v (Cmd.info cmd_name ~doc) Term.(const run $ csv_arg $ quick_arg $ one_thread_arg $ total_ops_arg)

let ablation_patience_cmd =
  ablation "ablation-patience" "PATIENCE sweep (fast/slow-path cutover)"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_patience ~quick ~threads ?total_ops ())

let ablation_segment_cmd =
  ablation "ablation-segment" "Segment size sweep (the paper's N)"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_segment_size ~quick ~threads ?total_ops ())

let ablation_garbage_cmd =
  ablation "ablation-garbage" "MAX_GARBAGE cleanup-threshold sweep"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_max_garbage ~quick ~threads ?total_ops ())

let ablation_reclaim_cmd =
  ablation "ablation-reclaim" "Reclamation on/off on the hot path"
    (fun ~quick ~threads ?total_ops () ->
      Harness.Experiments.ablation_reclamation ~quick ~threads ?total_ops ())

let latency_cmd =
  let run csv threads queues =
    let queues =
      Option.map
        (List.map (fun n ->
             match Harness.Queues.find n with
             | Some f -> f
             | None ->
               Printf.eprintf "unknown queue %S; try 'repro list'\n" n;
               exit 2))
        queues
    in
    save csv (Harness.Latency.experiment ?queues ~threads ())
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Per-operation latency tails (the wait-freedom predictability claim)")
    Term.(const run $ csv_arg $ one_thread_arg $ queues_arg)

let patience_list_arg =
  let doc = "Comma-separated patience values to sweep." in
  Arg.(
    value
    & opt (list int) Harness.Telemetry.default_patiences
    & info [ "patience" ] ~docv:"P,P,..." ~doc)

let json_arg =
  let doc = "Also write the telemetry rows as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let stats_cmd =
  let run threads total_ops bench patiences json =
    match Harness.Workload.kind_of_string bench with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok kind ->
      let total_ops = Option.value total_ops ~default:400_000 in
      Printf.printf
        "Wait-freedom telemetry: instrumented wf queue, %d threads, %s workload, %d ops/row\n"
        threads
        (Harness.Workload.kind_to_string kind)
        total_ops;
      Printf.printf "(slow/Mop = slow-path operations per million; the paper's §6 claim is\n";
      Printf.printf " that patience ~10 makes slow paths negligible)\n\n";
      let rows = Harness.Telemetry.stats_table ~kind ~patiences ~total_ops ~threads () in
      Format.printf "%a@." Harness.Telemetry.pp_table rows;
      Format.printf "Latency tails (timing overhead included; relative shape is the signal):@.";
      List.iter
        (fun (r : Harness.Telemetry.row) ->
          List.iter
            (fun cls ->
              let s = Obs.Op_latency.summarize r.result.latency cls in
              if s.Obs.Op_latency.samples > 0 then
                Format.printf
                  "  patience %-3d %-13s p50 %7.0fns  p90 %7.0fns  p99 %7.0fns  max %9.0fns@."
                  r.patience
                  (Obs.Op_latency.class_name cls)
                  s.p50_ns s.p90_ns s.p99_ns s.max_ns)
            Obs.Op_latency.classes)
        rows;
      (match List.rev rows with
      | last :: _ -> (
        match last.result.snapshot with
        | Some snap ->
          Format.printf "@.Snapshot of the last run (patience %d):@.%a@." last.patience
            Obs.Snapshot.pp snap
        | None -> ())
      | [] -> ());
      Option.iter
        (fun path ->
          Harness.Json.save (Harness.Telemetry.table_to_json rows) ~path;
          Printf.printf "Wrote %s\n" path)
        json;
      let verdict = Harness.Telemetry.slow_path_verdict rows in
      Format.printf "@.%a@." Harness.Telemetry.pp_verdict verdict;
      match verdict with
      | Harness.Telemetry.Exceeded _ -> exit 1
      | Within _ | Unmeasured -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fast/slow-path telemetry table: slow-path rate, CAS failures, helping events and \
          latency tails of the instrumented wait-free queue across patience values.  Exits 1 \
          when the slow-path rate at patience 10 exceeds 1e-3")
    Term.(
      const run
      $ Arg.(value & opt thread_count 4 & info [ "threads" ] ~docv:"N" ~doc:"Worker domains.")
      $ total_ops_arg $ bench_arg $ patience_list_arg $ json_arg)

(* Live fault-injection storm on the Enabled-injector build: K victim
   domains park or die mid-protocol at seed-chosen injection points
   while the rest keep operating.  Wait-freedom means the survivors
   finish their full budgets regardless; the exit code asserts it. *)
let inject_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let run threads victims seed ops park kill =
    let victims =
      match victims with
      | Some k -> max 0 (min k threads)
      | None -> max 1 (threads / 2)
    in
    let q = Q.create () in
    let plan = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) () in
    Inject.reset_stats ();
    (* a park unit is 1us of wall-clock here: long enough to span many
       thousands of survivor operations, short enough to sweep points *)
    Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
    let is_victim = Domain.DLS.new_key (fun () -> false) in
    Inject.install (fun p ->
        if Domain.DLS.get is_victim then Inject.Plan.decide plan p else Inject.Continue);
    Printf.printf "Fault-injection storm: %d domains (%d victims), %d enq/deq pairs each\n  plan: %s\n%!"
      threads victims ops (Inject.Plan.describe plan);
    let lat = Array.init threads (fun _ -> Obs.Op_latency.create ()) in
    let pairs_done = Array.make threads 0 in
    let outcome = Array.make threads "spawn failed" in
    let killed = Array.make threads false in
    let worker d () =
      if d < victims then Domain.DLS.set is_victim true;
      let h = Q.register q in
      (* retire on every exit path: a crashed victim's handle must not
         pin reclamation, and its pending request stays helpable *)
      Fun.protect ~finally:(fun () -> Q.retire q h) @@ fun () ->
      try
        for i = 0 to ops - 1 do
          let t0 = Primitives.Clock.now_ns () in
          Q.enqueue q h ((d * ops) + i);
          let t1 = Primitives.Clock.now_ns () in
          Obs.Op_latency.record lat.(d) Obs.Op_latency.Enqueue
            (Int64.to_float (Int64.sub t1 t0));
          let t2 = Primitives.Clock.now_ns () in
          let v = Q.dequeue q h in
          let t3 = Primitives.Clock.now_ns () in
          Obs.Op_latency.record lat.(d)
            (match v with
            | Some _ -> Obs.Op_latency.Dequeue
            | None -> Obs.Op_latency.Dequeue_empty)
            (Int64.to_float (Int64.sub t3 t2));
          pairs_done.(d) <- i + 1
        done;
        outcome.(d) <- "completed"
      with Inject.Killed p ->
        killed.(d) <- true;
        outcome.(d) <- "killed @ " ^ Inject.point_name p
    in
    let domains = List.init threads (fun d -> Domain.spawn (worker d)) in
    List.iter Domain.join domains;
    Inject.remove ();
    let rec drain n = match Q.pop q with Some _ -> drain (n + 1) | None -> n in
    let leftovers = drain 0 in
    let failures = ref 0 in
    Printf.printf "\n";
    Array.iteri
      (fun d n ->
        let role = if d < victims then "victim" else "survivor" in
        Printf.printf "  domain %2d  %-8s %-32s %7d/%d pairs\n" d role outcome.(d) n ops;
        if (not killed.(d)) && n < ops then incr failures)
      pairs_done;
    Printf.printf "  %d value(s) left queued after the storm (killed victims may strand <=1 each)\n"
      leftovers;
    Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    let merged = Obs.Op_latency.create () in
    Array.iter (fun l -> Obs.Op_latency.merge_into ~into:merged l) lat;
    Format.printf "@.Latency tails across all domains (parked victims' stalls included):@.";
    List.iter
      (fun cls ->
        let s = Obs.Op_latency.summarize merged cls in
        if s.Obs.Op_latency.samples > 0 then
          Format.printf "  %-13s %9d ops  p50 %7.0fns  p90 %7.0fns  p99 %7.0fns  max %9.0fns@."
            (Obs.Op_latency.class_name cls)
            s.samples s.p50_ns s.p90_ns s.p99_ns s.max_ns)
      Obs.Op_latency.classes;
    Format.printf "@.Queue snapshot (helping visible under help_enq/help_deq):@.%a@."
      Obs.Snapshot.pp (Q.snapshot q);
    if !failures > 0 then begin
      Printf.printf "\nFAIL: %d unkilled domain(s) did not complete their budget — replay with --seed %d\n"
        !failures seed;
      exit 1
    end
    else Printf.printf "\nOK: every surviving domain completed its full budget.\n"
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Live fault-injection storm: stall (or with --kill, crash) victim domains at \
          seed-chosen protocol points and verify the survivors' wait-free completion")
    Term.(
      const run
      $ Arg.(value & opt thread_count 8 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "victims" ] ~docv:"K"
              ~doc:"Domains subject to the fault plan (default: half, at least one).")
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")
      $ Arg.(
          value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Enqueue/dequeue pairs per domain.")
      $ Arg.(
          value
          & opt int 200
          & info [ "park" ] ~docv:"UNITS"
              ~doc:"Stall length in park units (one unit is 1us in this driver).")
      $ Arg.(
          value
          & flag
          & info [ "kill" ]
              ~doc:
                "Arm Die instead of Park: victims crash mid-protocol; survivors must still \
                 complete."))

(* N-shard k-batch storm on the fault-injectable router build: every
   domain exchanges k-value batches through the router (optionally
   bounded, optionally with victim domains parking or dying at
   seed-chosen protocol points, batch windows included), then the
   driver audits conservation — no value duplicated or invented, and
   no more values missing than the kills can account for (a batch
   crash strands at most one batch of values). *)
let shard_cmd =
  let module R = Shard.Storm in
  let run shards batch threads victims seed ops park bounded kill =
    if shards < 1 || batch < 1 then begin
      prerr_endline "repro shard: need --shards >= 1, --batch >= 1";
      exit 2
    end;
    let victims =
      match victims with
      | Some k -> max 0 (min k threads)
      | None -> if kill then max 1 (threads / 2) else 0
    in
    let t = R.create ~shards ?capacity:bounded ~rebalance_every:64 () in
    let plan = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) () in
    Inject.reset_stats ();
    Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
    let is_victim = Domain.DLS.new_key (fun () -> false) in
    if victims > 0 then
      Inject.install (fun p ->
          if Domain.DLS.get is_victim then Inject.Plan.decide plan p else Inject.Continue);
    Printf.printf
      "Shard storm: %d shards, batch %d, %d domains (%d victims), %d values each%s\n  plan: %s\n%!"
      shards batch threads victims ops
      (match bounded with
      | Some c -> Printf.sprintf ", bounded at %d/shard" c
      | None -> "")
      (Inject.Plan.describe plan);
    let got = Array.init threads (fun _ -> ref []) in
    let venq = Array.make threads 0 in
    let outcome = Array.make threads "spawn failed" in
    let killed = Array.make threads false in
    let worker d () =
      if d < victims then Domain.DLS.set is_victim true;
      let h = R.register t in
      (* one reusable dequeue buffer per domain: the caller-buffer
         batch API keeps the storm's hot loop allocation-free (the
         tail batch, if shorter, reuses a prefix via a throwaway) *)
      let buf = Array.make batch (-1) in
      Fun.protect ~finally:(fun () -> R.retire t h) @@ fun () ->
      try
        let i = ref 0 in
        while !i < ops do
          let k = min batch (ops - !i) in
          R.enq_batch t h (Array.init k (fun j -> (d * ops) + !i + j));
          i := !i + k;
          venq.(d) <- !i;
          let out = if k = batch then buf else Array.make k (-1) in
          let n = R.deq_batch_into t h out ~default:(-1) in
          for j = 0 to n - 1 do
            got.(d) := out.(j) :: !(got.(d))
          done
        done;
        outcome.(d) <- "completed"
      with Inject.Killed p ->
        killed.(d) <- true;
        outcome.(d) <- "killed @ " ^ Inject.point_name p
    in
    let domains = List.init threads (fun d -> Domain.spawn (worker d)) in
    List.iter Domain.join domains;
    if victims > 0 then Inject.remove ();
    let drained = ref [] in
    let hd = R.register t in
    let rec drain () =
      match R.dequeue t hd with
      | Some v ->
        drained := v :: !drained;
        drain ()
      | None -> ()
    in
    drain ();
    R.retire t hd;
    let kills = (Inject.total_stats ()).Inject.kills in
    let failures = ref 0 in
    Printf.printf "\n";
    Array.iteri
      (fun d oc ->
        let role = if d < victims then "victim" else "survivor" in
        Printf.printf "  domain %2d  %-8s %-32s %7d/%d enqueued\n" d role oc venq.(d) ops;
        if (not killed.(d)) && venq.(d) < ops then incr failures)
      outcome;
    (* conservation audit over the full run *)
    let all =
      List.sort compare (!drained @ List.concat_map (fun r -> !r) (Array.to_list got))
    in
    let violations = ref [] in
    let rec dups = function
      | a :: (b :: _ as tl) ->
        if a = b then violations := Printf.sprintf "value %d dequeued twice" a :: !violations;
        dups tl
      | _ -> ()
    in
    dups all;
    (* a value is legitimate iff its owner enqueued it for sure, or it
       belongs to a killed victim's in-flight batch (helpers may have
       completed it) *)
    List.iter
      (fun v ->
        let d = v / ops and i = v mod ops in
        if d < 0 || d >= threads || (i >= venq.(d) && not (killed.(d) && i < venq.(d) + batch))
        then violations := Printf.sprintf "alien value %d" v :: !violations)
      all;
    let missing = ref 0 in
    let present = Hashtbl.create (List.length all) in
    List.iter (fun v -> Hashtbl.replace present v ()) all;
    Array.iteri
      (fun d n ->
        for i = 0 to n - 1 do
          if not (Hashtbl.mem present ((d * ops) + i)) then incr missing
        done)
      venq;
    (* Missing-value allowance: only kills that can interrupt a
       dequeue-side window strand values this audit counts — a kill
       inside an enqueue (fast/slow/batch/topology enqueue points)
       fires before the victim's [venq] advanced past the in-flight
       batch, so its values fall under the killed-victim alien
       allowance above, never under [missing].  Counting those kills
       here double-counted them: with bounded shards a producer can
       be refused ([Would_block] footprint-free rotation) and then
       killed inside the eventually admitted batch's
       [Enq_batch_after_faa] window, and the old [kills * batch]
       bound would quietly absorb a genuine dequeue-side stranding
       bug under that enqueue kill's allowance. *)
    let kills_at ps = List.fold_left (fun acc p -> acc + (Inject.stats p).Inject.kills) 0 ps in
    let enq_side_kills =
      kills_at
        (Inject.points_of_class Inject.Enqueue
        @ [ Inject.Enq_batch_after_faa; Inject.Topo_enq_pending ])
    in
    let strand_kills = kills - enq_side_kills in
    if !missing > strand_kills * batch then
      violations :=
        Printf.sprintf "%d values missing but only %d dequeue-side kills x batch %d" !missing
          strand_kills batch
        :: !violations;
    Printf.printf
      "  %d value(s) drained post-storm, %d missing (%d dequeue-side kills of %d x batch %d \
       allowed)\n"
      (List.length !drained) !missing strand_kills kills batch;
    Format.printf "@.Per-shard breakdown:@.%a@." R.pp_snapshot_table t;
    if victims > 0 then Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    if !failures > 0 || !violations <> [] then begin
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) !violations;
      if !failures > 0 then
        Printf.printf "FAIL: %d unkilled domain(s) did not complete — replay with --seed %d\n"
          !failures seed;
      exit 1
    end
    else Printf.printf "\nOK: values conserved across %d shards (d-bounded reordering only).\n" shards
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Sharded-router storm: N shards exchanging k-value FAA batches across domains, with \
          optional bounded capacity and fault injection; verifies value conservation")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "shards" ] ~docv:"S" ~doc:"Router shards.")
      $ Arg.(value & opt int 4 & info [ "batch" ] ~docv:"K" ~doc:"Values per batch operation.")
      $ Arg.(value & opt thread_count 8 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "victims" ] ~docv:"K"
              ~doc:"Domains subject to the fault plan (default: half when --kill, else none).")
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")
      $ Arg.(value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Values enqueued per domain.")
      $ Arg.(
          value
          & opt int 200
          & info [ "park" ] ~docv:"UNITS"
              ~doc:"Stall length in park units (one unit is 1us in this driver).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "bounded" ] ~docv:"CAP"
              ~doc:"Bound each shard at $(docv) values (backpressure mode).")
      $ Arg.(
          value
          & flag
          & info [ "kill" ]
              ~doc:"Arm Die: victim domains crash mid-protocol (batch windows included)."))

(* Spike storm on a bounded-memory queue: many producers push through
   a few consumers with a hard segment cap, optionally with victim
   producers parking or dying at seed-chosen points (the freelist
   windows included).  The driver audits the bounded-mode contract:
   the allocation counter never passes the cap at any sampled instant
   (the budget makes it monotone, so end-of-run [allocated <= cap]
   certifies the whole run), live + pooled segments end within the
   cap, and values are conserved — no duplicate, no alien, and no
   more missing than the kills can strand (one in-flight value per
   killed producer). *)
let bounded_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let module S = Baselines.Scq in
  let run queue producers consumers cap ops victims seed park kill =
    if producers < 1 || consumers < 1 then begin
      prerr_endline "repro bounded: need at least one producer and one consumer";
      exit 2
    end;
    if queue = "wf-bounded" && cap < 6 then begin
      prerr_endline "repro bounded: --cap must be >= 6 (max_garbage + 4 at the driver's settings)";
      exit 2
    end;
    let victims =
      match victims with
      | Some k -> max 0 (min k producers)
      | None -> if kill then max 1 (producers / 2) else 0
    in
    (* One spike driver over three queues so the EXPERIMENTS.md table
       comes from a single command.  Each build exposes: per-domain
       (enqueue, dequeue-or-minus-one, retire), a post-storm drain, a
       monotone allocation sample for the mid-run cap audit (0 when
       the build has no segments), and a footprint summary. *)
    let make_wf bounded =
      let q =
        if bounded then Q.create ~segment_cap:cap ~max_garbage:(max 2 (min 10 (cap - 4))) ()
        else Q.create ()
      in
      let register () =
        let h = Q.register q in
        ((fun v -> Q.enqueue q h v), (fun () -> Q.dequeue_or q h (-1)), fun () -> Q.retire q h)
      in
      let rec drain acc = match Q.pop q with Some v -> drain (v :: acc) | None -> acc in
      let footprint () =
        Printf.sprintf "%d segments allocated, %d live + %d pooled%s, %d cap-pressure waits"
          (Q.allocated_segments q) (Q.live_segments q) (Q.pooled_segments q)
          (if bounded then Printf.sprintf " (cap %d)" cap else "")
          (Q.cap_hits q)
      in
      let cap_violation () =
        if
          bounded
          && (Q.allocated_segments q > cap || Q.live_segments q + Q.pooled_segments q > cap)
        then
          Some
            (Printf.sprintf "cap %d exceeded (%d allocated, %d live + %d pooled)" cap
               (Q.allocated_segments q) (Q.live_segments q) (Q.pooled_segments q))
        else None
      in
      ( register,
        (fun () -> drain []),
        (fun () -> if bounded then Q.allocated_segments q else 0),
        footprint,
        cap_violation )
    in
    let make_scq () =
      (* ring capacity fixed at 2^12 values: bounded by construction,
         in value slots rather than segments *)
      let q = S.create ~order:12 () in
      let register () =
        let h = S.register q in
        ((fun v -> S.enqueue q h v), (fun () -> S.dequeue_or q h (-1)), fun () -> ())
      in
      let drain () =
        let h = S.register q in
        let rec go acc = match S.dequeue q h with Some v -> go (v :: acc) | None -> acc in
        go []
      in
      let footprint () =
        Printf.sprintf "fixed ring of %d value slots (no segments)" (S.capacity q)
      in
      ( register,
        drain,
        (fun () -> 0),
        footprint,
        fun () -> None )
    in
    let register, drain, sample_alloc, footprint, cap_violation =
      match queue with
      | "wf-bounded" -> make_wf true
      | "wf" -> make_wf false
      | "scq" -> make_scq ()
      | other ->
        Printf.eprintf "repro bounded: unknown --queue %s (wf-bounded | wf | scq)\n" other;
        exit 2
    in
    let plan = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) () in
    Inject.reset_stats ();
    Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
    let is_victim = Domain.DLS.new_key (fun () -> false) in
    if victims > 0 then
      Inject.install (fun p ->
          if Domain.DLS.get is_victim then Inject.Plan.decide plan p else Inject.Continue);
    Printf.printf
      "Bounded spike storm [%s]: %d producers -> %d consumers, %d values each (%d victims)\n\
      \  plan: %s\n\
       %!"
      queue producers consumers ops victims (Inject.Plan.describe plan);
    let venq = Array.make producers 0 in
    let killed = Array.make producers false in
    let outcome = Array.make producers "spawn failed" in
    let producers_done = Atomic.make 0 in
    let cap_breach = Atomic.make (-1) in
    let producer d () =
      if d < victims then Domain.DLS.set is_victim true;
      let enq, _deq, retire = register () in
      Fun.protect ~finally:retire @@ fun () ->
      (try
         for i = 0 to ops - 1 do
           enq ((d * ops) + i);
           venq.(d) <- i + 1;
           (* [allocated_segments] is monotone (budget reservations are
              never handed back on recycle), so any sample past the cap
              is a hard-cap violation, not a race *)
           let a = sample_alloc () in
           if a > cap then Atomic.set cap_breach a
         done;
         outcome.(d) <- "completed"
       with Inject.Killed p ->
         killed.(d) <- true;
         outcome.(d) <- "killed @ " ^ Inject.point_name p);
      ignore (Atomic.fetch_and_add producers_done 1)
    in
    let got = Array.init consumers (fun _ -> ref []) in
    let consumer c () =
      let _enq, deq, retire = register () in
      Fun.protect ~finally:retire @@ fun () ->
      let idle = ref 0 in
      while Atomic.get producers_done < producers || !idle < 100 do
        match deq () with
        | -1 ->
          incr idle;
          Domain.cpu_relax ()
        | v ->
          got.(c) := v :: !(got.(c));
          idle := 0
      done
    in
    let t0 = Primitives.Clock.now_ns () in
    let domains =
      List.init producers (fun d -> Domain.spawn (producer d))
      @ List.init consumers (fun c -> Domain.spawn (consumer c))
    in
    List.iter Domain.join domains;
    let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
    Inject.remove ();
    let leftovers = drain () in
    let seen = Array.make (producers * ops) 0 in
    let mark v =
      if v < 0 || v >= producers * ops then begin
        Printf.printf "\nFAIL: alien value %d surfaced -- replay with --seed %d\n" v seed;
        exit 1
      end;
      seen.(v) <- seen.(v) + 1
    in
    Array.iter (fun l -> List.iter mark !l) got;
    List.iter mark leftovers;
    let kills = (Inject.total_stats ()).Inject.kills in
    let missing = ref 0 in
    let dups = ref 0 in
    for d = 0 to producers - 1 do
      for i = 0 to venq.(d) - 1 do
        let n = seen.((d * ops) + i) in
        if n = 0 then incr missing;
        if n > 1 then incr dups
      done
    done;
    let consumed = Array.fold_left (fun a l -> a + List.length !l) 0 got in
    Printf.printf "\n";
    Array.iteri
      (fun d n ->
        let role = if d < victims then "victim" else "producer" in
        Printf.printf "  domain %2d  %-8s %-32s %7d/%d enqueued\n" d role outcome.(d) n ops)
      venq;
    let total_enq = Array.fold_left ( + ) 0 venq in
    Printf.printf "  %d consumed + %d drained in %.2fs (%.3f Mops enq+deq); %s\n" consumed
      (List.length leftovers) elapsed_s
      (float_of_int (total_enq + consumed) /. elapsed_s /. 1e6)
      (footprint ());
    Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    let breach = Atomic.get cap_breach in
    if breach >= 0 then begin
      Printf.printf "\nFAIL: %d segments allocated past cap %d -- replay with --seed %d\n" breach
        cap seed;
      exit 1
    end;
    (match cap_violation () with
    | Some msg ->
      Printf.printf "\nFAIL: %s -- replay with --seed %d\n" msg seed;
      exit 1
    | None -> ());
    if !dups > 0 then begin
      Printf.printf "\nFAIL: %d value(s) dequeued twice -- replay with --seed %d\n" !dups seed;
      exit 1
    end;
    if !missing > kills then begin
      Printf.printf "\nFAIL: %d value(s) missing but only %d kill(s) -- replay with --seed %d\n"
        !missing kills seed;
      exit 1
    end;
    Printf.printf "\nOK [%s]: spike survived (%d kills, %d missing <= kills); values conserved.\n"
      queue kills !missing
  in
  Cmd.v
    (Cmd.info "bounded"
       ~doc:
         "Bounded-memory spike storm: producers >> consumers with a hard segment cap, with \
          optional fault injection (wf builds); audits the cap and value conservation.  --queue \
          wf-bounded (capped segments), wf (unbounded control), scq (fixed ring)")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "wf-bounded"
          & info [ "queue" ] ~docv:"Q" ~doc:"Queue under storm: wf-bounded, wf, or scq.")
      $ Arg.(value & opt int 6 & info [ "producers" ] ~docv:"N" ~doc:"Producer domains.")
      $ Arg.(value & opt int 2 & info [ "consumers" ] ~docv:"N" ~doc:"Consumer domains.")
      $ Arg.(
          value
          & opt int 12
          & info [ "cap" ] ~docv:"C" ~doc:"Hard segment cap (wf-bounded only).")
      $ Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Values per producer.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "victims" ] ~docv:"K"
              ~doc:"Producer domains subject to the fault plan (default: half when --kill).")
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")
      $ Arg.(
          value
          & opt int 200
          & info [ "park" ] ~docv:"UNITS"
              ~doc:"Stall length in park units (one unit is 1us in this driver).")
      $ Arg.(
          value
          & flag
          & info [ "kill" ] ~doc:"Arm Die: victim producers crash mid-protocol."))

(* Role-split storm on the injectable topology variants.  Producers
   and consumers are separate domains laid out to the variant's
   contract (spsc 1p/1c, mpsc (N-1)p/1c, spmc 1p/(N-1)c; adaptive runs
   all-pairs so every domain's first dequeue forces the degrade
   switches).  Victims park or die at the Topology-class injection
   points; afterwards the driver drains and audits conservation — no
   duplicate, no alien value, and no more missing than the kills can
   strand (one in-flight value per kill). *)
type topo_ops = { tenq : int -> unit; tdeq_or : int -> int; tfin : unit -> unit }

let topology_cmd =
  let run variant threads victims seed ops park kill =
    if threads < 2 then begin
      prerr_endline "repro topology: need at least two domains (one per role)";
      exit 2
    end;
    (* producer/consumer split per variant; adaptive = all-pairs *)
    let np, nc, pairs =
      match variant with
      | "spsc" -> (1, 1, false)
      | "mpsc" -> (threads - 1, 1, false)
      | "spmc" -> (1, threads - 1, false)
      | "adaptive" -> (threads, 0, true)
      | v ->
        Printf.eprintf "repro topology: unknown variant %S (spsc|mpsc|spmc|adaptive)\n" v;
        exit 2
    in
    let threads = np + nc in
    let reg, pp_state =
      match variant with
      | "spsc" ->
        let module Q = Topology.Spsc_inject in
        let q = Q.create () in
        ( (fun () ->
            let h = Q.register q in
            {
              tenq = (fun v -> Q.enqueue q h v);
              tdeq_or = (fun d -> Q.dequeue_or q h d);
              tfin = (fun () -> Q.retire q h);
            }),
          fun fmt -> Obs.Snapshot.pp fmt (Q.snapshot q) )
      | "mpsc" ->
        let module Q = Topology.Mpsc_inject in
        let q = Q.create () in
        ( (fun () ->
            let h = Q.register q in
            {
              tenq = (fun v -> Q.enqueue q h v);
              tdeq_or = (fun d -> Q.dequeue_or q h d);
              tfin = (fun () -> Q.retire q h);
            }),
          fun fmt -> Obs.Snapshot.pp fmt (Q.snapshot q) )
      | "spmc" ->
        let module Q = Topology.Spmc_inject in
        let q = Q.create () in
        ( (fun () ->
            let h = Q.register q in
            {
              tenq = (fun v -> Q.enqueue q h v);
              tdeq_or = (fun d -> Q.dequeue_or q h d);
              tfin = (fun () -> Q.retire q h);
            }),
          fun fmt -> Obs.Snapshot.pp fmt (Q.snapshot q) )
      | _ ->
        let module Q = Topology.Adaptive_inject in
        let q = Q.create () in
        ( (fun () ->
            let h = Q.register q in
            {
              tenq = (fun v -> Q.enqueue q h v);
              tdeq_or = (fun d -> Q.dequeue_or q h d);
              tfin = (fun () -> Q.retire q h);
            }),
          fun fmt ->
            Format.fprintf fmt "adaptive backend: %s after %d switch(es)@.%a" (Q.mode q)
              (Q.switches q) Obs.Snapshot.pp (Q.snapshot q) )
    in
    let victims =
      match victims with
      | Some k -> max 0 (min k threads)
      | None -> if kill then max 1 (threads / 2) else 0
    in
    let plan = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) () in
    Inject.reset_stats ();
    Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
    let is_victim = Domain.DLS.new_key (fun () -> false) in
    if victims > 0 then
      Inject.install (fun p ->
          if Domain.DLS.get is_victim then Inject.Plan.decide plan p else Inject.Continue);
    Printf.printf
      "Topology storm: %s, %d producer(s) + %d consumer(s)%s (%d victims), %d values/producer\n\
      \  plan: %s\n\
       %!"
      variant np nc
      (if pairs then " (all-pairs)" else "")
      victims ops (Inject.Plan.describe plan);
    let got = Array.init threads (fun _ -> ref []) in
    let venq = Array.make threads 0 in
    let outcome = Array.make threads "spawn failed" in
    let killed = Array.make threads false in
    let producers_live = Atomic.make np in
    let worker d () =
      if d < victims then Domain.DLS.set is_victim true;
      let o = reg () in
      let is_producer = d < np in
      Fun.protect ~finally:(fun () ->
          if is_producer then Atomic.decr producers_live;
          o.tfin ())
      @@ fun () ->
      try
        if pairs then
          for i = 0 to ops - 1 do
            o.tenq ((d * ops) + i);
            venq.(d) <- i + 1;
            let v = o.tdeq_or min_int in
            if v <> min_int then got.(d) := v :: !(got.(d))
          done
        else if is_producer then
          for i = 0 to ops - 1 do
            o.tenq ((d * ops) + i);
            venq.(d) <- i + 1
          done
        else begin
          (* consume until the producers are gone and the queue reads
             empty; wait-freedom bounds each probe, so only a genuinely
             empty queue parks us on cpu_relax *)
          let live = ref true in
          while !live do
            let v = o.tdeq_or min_int in
            if v <> min_int then got.(d) := v :: !(got.(d))
            else if Atomic.get producers_live = 0 then live := false
            else Domain.cpu_relax ()
          done
        end;
        outcome.(d) <- "completed"
      with Inject.Killed p ->
        killed.(d) <- true;
        outcome.(d) <- "killed @ " ^ Inject.point_name p
    in
    let domains = List.init threads (fun d -> Domain.spawn (worker d)) in
    List.iter Domain.join domains;
    if victims > 0 then Inject.remove ();
    (* post-storm drain with a fresh handle: every retired consumer
       released its role seat, so the drain can claim it *)
    let o = reg () in
    let drained = ref [] in
    let continue_ = ref true in
    while !continue_ do
      let v = o.tdeq_or min_int in
      if v <> min_int then drained := v :: !drained else continue_ := false
    done;
    o.tfin ();
    let kills = (Inject.total_stats ()).Inject.kills in
    let failures = ref 0 in
    Printf.printf "\n";
    Array.iteri
      (fun d oc ->
        let role =
          if pairs then "pairs"
          else if d < np then "producer"
          else "consumer"
        in
        let victim = if d < victims then " victim " else " "
        in
        Printf.printf "  domain %2d %-9s%s%-32s %7d enq, %7d deq\n" d role victim oc venq.(d)
          (List.length !(got.(d)));
        if (not killed.(d)) && (d < np || pairs) && venq.(d) < ops then incr failures)
      outcome;
    (* conservation audit, batch = 1: a kill strands at most one value *)
    let all =
      List.sort compare (!drained @ List.concat_map (fun r -> !r) (Array.to_list got))
    in
    let violations = ref [] in
    let rec dups = function
      | a :: (b :: _ as tl) ->
        if a = b then violations := Printf.sprintf "value %d dequeued twice" a :: !violations;
        dups tl
      | _ -> ()
    in
    dups all;
    List.iter
      (fun v ->
        let d = v / ops and i = v mod ops in
        if d < 0 || d >= threads || (i >= venq.(d) && not (killed.(d) && i < venq.(d) + 1)) then
          violations := Printf.sprintf "alien value %d" v :: !violations)
      all;
    let missing = ref 0 in
    let present = Hashtbl.create (List.length all + 1) in
    List.iter (fun v -> Hashtbl.replace present v ()) all;
    Array.iteri
      (fun d n ->
        for i = 0 to n - 1 do
          if not (Hashtbl.mem present ((d * ops) + i)) then incr missing
        done)
      venq;
    if !missing > kills then
      violations :=
        Printf.sprintf "%d values missing but only %d kill(s)" !missing kills :: !violations;
    Printf.printf "  %d value(s) drained post-storm, %d missing (%d kill(s) allowed)\n"
      (List.length !drained) !missing kills;
    Format.printf "@.%t@." pp_state;
    if victims > 0 then Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    if !failures > 0 || !violations <> [] then begin
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) !violations;
      if !failures > 0 then
        Printf.printf "FAIL: %d unkilled domain(s) did not complete — replay with --seed %d\n"
          !failures seed;
      exit 1
    end
    else
      Printf.printf "\nOK: values conserved under the %s topology (%d kill(s) absorbed).\n" variant
        kills
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:
         "Role-split storm on a specialized topology variant (or the adaptive queue): \
          producers and consumers laid out per the variant's contract, optional fault \
          injection at the Topology-class protocol points, conservation audited")
    Term.(
      const run
      $ Arg.(
          value
          & opt string "adaptive"
          & info [ "variant" ] ~docv:"V" ~doc:"Variant: spsc, mpsc, spmc or adaptive.")
      $ Arg.(value & opt thread_count 4 & info [ "threads" ] ~docv:"N" ~doc:"Storm domains (>= 2).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "victims" ] ~docv:"K"
              ~doc:"Domains subject to the fault plan (default: half when --kill, else none).")
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")
      $ Arg.(
          value & opt int 20_000 & info [ "ops" ] ~docv:"N" ~doc:"Values enqueued per producer.")
      $ Arg.(
          value
          & opt int 200
          & info [ "park" ] ~docv:"UNITS"
              ~doc:"Stall length in park units (one unit is 1us in this driver).")
      $ Arg.(
          value
          & flag
          & info [ "kill" ] ~doc:"Arm Die: victim domains crash mid-protocol."))

(* Fan-out/fan-in storm on the effects-based task scheduler
   (probe+inject build): R root tasks each spawn K subtasks and await
   them all, while — under --park / --kill — the worker domains stall
   or die at seed-chosen protocol points, the scheduler's own windows
   (steal claim, park, promise-resolve commit) included.  The driver
   then audits the scheduler's headline guarantee: after [shutdown],
   {e every} promise is resolved — a completed root carries the exact
   fan-in sum, an aborted or death-resolved root carries an error, and
   none is left pending.  Any stranded promise (or wrong sum) exits 1
   with the replay seed. *)
let sched_cmd =
  let module S = Sched.Scheduler_inject in
  let run workers tasks subtasks seed park kill cap =
    if workers < 1 || tasks < 1 || subtasks < 0 then begin
      prerr_endline "repro sched: need --workers >= 1, --tasks >= 1, --subtasks >= 0";
      exit 2
    end;
    let plan = Inject.Plan.make ~park ~lethal:kill ~seed:(Int64.of_int seed) () in
    Inject.reset_stats ();
    Inject.set_park (fun n -> Unix.sleepf (float_of_int n *. 1e-6));
    let faults = kill || park > 0 in
    (* victims are the worker domains: the driver (and its blocking
       submits) stays shielded so the storm tests the scheduler's
       recovery, not the driver's *)
    let driver = Domain.self () in
    if faults then
      Inject.install (fun p ->
          if Domain.self () = driver then Inject.Continue else Inject.Plan.decide plan p);
    Printf.printf
      "Scheduler storm: %d workers, %d roots x %d subtasks%s\n  plan: %s\n%!"
      workers tasks subtasks
      (match cap with
      | Some c -> Printf.sprintf ", injector capped at %d segments" c
      | None -> "")
      (if faults then Inject.Plan.describe plan else "none (clean throughput run)");
    let sched = S.create ~workers ?injector_cap:cap () in
    let t0 = Primitives.Clock.now_ns () in
    let roots =
      Array.init tasks (fun i ->
          S.async sched (fun () ->
              let kids =
                List.init subtasks (fun j -> S.async sched (fun () -> i + j))
              in
              List.fold_left (fun acc k -> acc + S.Promise.await k) 0 kids))
    in
    if kill then begin
      (* lethal mode: workers may die mid-protocol, so settle briefly
         and let shutdown's sweep + promise backstop finish the job
         rather than blocking on results that may need the backstop *)
      let deadline = Int64.add t0 2_000_000_000L in
      let rec settle () =
        if
          Array.exists (fun p -> not (S.Promise.is_resolved p)) roots
          && Primitives.Clock.now_ns () < deadline
        then begin
          Unix.sleepf 0.001;
          settle ()
        end
      in
      settle ()
    end
    else Array.iter (fun p -> ignore (S.Promise.result p)) roots;
    S.shutdown sched;
    let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
    if faults then Inject.remove ();
    let expected i = (subtasks * i) + (subtasks * (subtasks - 1) / 2) in
    let stranded = ref 0 and completed = ref 0 and errored = ref 0 and wrong = ref 0 in
    Array.iteri
      (fun i p ->
        match S.Promise.poll p with
        | None ->
          incr stranded;
          if !stranded <= 5 then Printf.printf "  STRANDED: root %d still pending\n" i
        | Some (Ok s) ->
          if s = expected i then incr completed
          else begin
            incr wrong;
            if !wrong <= 5 then
              Printf.printf "  WRONG SUM: root %d got %d, expected %d\n" i s (expected i)
          end
        | Some (Error _) -> incr errored)
      roots;
    let total = tasks * (1 + subtasks) in
    Printf.printf "\n  %d roots: %d completed, %d errored, %d wrong, %d stranded\n" tasks
      !completed !errored !wrong !stranded;
    Printf.printf "  %d tasks through the scheduler in %.3fs (%.3f Mtasks/s)\n" total elapsed_s
      (float_of_int total /. elapsed_s /. 1e6);
    List.iter
      (fun (o : S.pool_obs) ->
        Printf.printf
          "  pool %-8s %d workers (%d live, %d died)  %d spawned, %d completed, %d aborted, %d \
           exceptions, %d steals\n"
          o.S.name o.workers o.live_workers o.worker_deaths o.tasks_spawned o.tasks_completed
          o.aborted_promises o.task_exceptions o.steals)
      (S.obs sched);
    if faults then Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    if !stranded > 0 || !wrong > 0 then begin
      Printf.printf
        "\nFAIL: %d stranded promise(s), %d wrong sum(s) — replay with --seed %d\n"
        !stranded !wrong seed;
      exit 1
    end
    else if (not kill) && !errored > 0 then begin
      Printf.printf "\nFAIL: %d root(s) errored without --kill — replay with --seed %d\n"
        !errored seed;
      exit 1
    end
    else
      Printf.printf
        "\nOK: every promise resolved%s.\n"
        (if kill then " (worker deaths absorbed, nothing stranded)" else ", all sums exact")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Task-scheduler fan-out/fan-in storm: root tasks spawning and awaiting subtasks over \
          the wait-free injector and work-stealing deques, with optional fault injection at the \
          scheduler's own protocol points; verifies that no promise is stranded")
    Term.(
      const run
      $ Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
      $ Arg.(value & opt int 10_000 & info [ "tasks" ] ~docv:"R" ~doc:"Root tasks.")
      $ Arg.(
          value & opt int 4 & info [ "subtasks" ] ~docv:"K" ~doc:"Subtasks spawned per root.")
      $ Arg.(
          value
          & opt int 42
          & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed; a failure replays from it.")
      $ Arg.(
          value
          & opt int 0
          & info [ "park" ] ~docv:"UNITS"
              ~doc:"Stall length in park units (one unit is 1us; 0 disables parking).")
      $ Arg.(
          value
          & flag
          & info [ "kill" ]
              ~doc:
                "Arm Die: workers crash at seed-chosen points (the scheduler's steal, park and \
                 resolve windows included); the audit still requires zero stranded promises.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "cap" ] ~docv:"SEGMENTS"
              ~doc:"Bound the injector at $(docv) segments (backpressure mode)."))

let list_cmd =
  let run () =
    List.iter
      (fun (f : Harness.Queues.factory) ->
        Printf.printf "%-10s %s\n" f.Harness.Queues.name f.Harness.Queues.description)
      Harness.Queues.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available queue implementations") Term.(const run $ const ())

let all_cmd =
  let run quick =
    ignore (Harness.Experiments.table1 ());
    ignore (Harness.Experiments.figure2 ~quick Harness.Workload.Pairs);
    ignore (Harness.Experiments.figure2 ~quick Harness.Workload.Fifty_fifty);
    ignore (Harness.Experiments.table2 ~quick ());
    ignore (Harness.Latency.experiment ());
    ignore (Harness.Experiments.ablation_patience ~quick ());
    ignore (Harness.Experiments.ablation_segment_size ~quick ());
    ignore (Harness.Experiments.ablation_max_garbage ~quick ());
    ignore (Harness.Experiments.ablation_reclamation ~quick ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table, figure and ablation in sequence")
    Term.(const run $ quick_arg)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduce the evaluation of 'A Wait-free Queue as Fast as Fetch-and-Add' (PPoPP'16): \
         tables, figures and ablations, plus live storm drivers (inject, shard, bounded, \
         topology, sched) for the subsystems built on the queue"
  in
  (* Cmdliner signals CLI parse errors — unknown subcommand included —
     with its own exit 124; scripts expect the conventional usage
     status, so fold it to 2. *)
  let code =
    Cmd.eval
       (Cmd.group info
          [
            table1_cmd;
            fig2_cmd;
            table2_cmd;
            ablation_patience_cmd;
            ablation_segment_cmd;
            ablation_garbage_cmd;
            ablation_reclaim_cmd;
            latency_cmd;
            stats_cmd;
            inject_cmd;
            shard_cmd;
            bounded_cmd;
            topology_cmd;
            sched_cmd;
            list_cmd;
            all_cmd;
          ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
