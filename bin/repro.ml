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

let quick_arg =
  let doc =
    "Quick methodology: 3 invocations of up to 5 iterations instead of the paper's 10x20, and a \
     smaller default operation budget."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Every integer flag goes through one of these converters, so a value
   out of range is a usage error (exit 2), not an uncaught exception
   from inside a run. *)
let int_range ?(hi = max_int) lo =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo && n <= hi -> Ok n
        | _ when hi = max_int ->
          Error (Printf.sprintf "invalid value %S: expected an integer >= %d" s lo)
        | _ ->
          Error (Printf.sprintf "invalid value %S: expected an integer from %d to %d" s lo hi)),
      Format.pp_print_int )

let thread_count = int_range ~hi:Harness.Runner.max_threads 1
let positive = int_range 1
let non_negative = int_range 0

(* A segment cap below 6 leaves no room for the queue's own floor
   (max_garbage + 4, at the smallest max_garbage of 2). *)
let segment_cap = int_range 6

(* An output file is opened (and created) while parsing, so a path we
   cannot write is a usage error before the run, not a Sys_error after
   it. *)
let output_path =
  Arg.conv'
    ( (fun path ->
        match close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path) with
        | () -> Ok path
        | exception Sys_error e -> Error e),
      Format.pp_print_string )

let csv_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some output_path) None & info [ "csv" ] ~docv:"PATH" ~doc)

let threads_arg ~default =
  let doc = "Comma-separated list of thread counts." in
  Arg.(value & opt (list thread_count) default & info [ "threads" ] ~docv:"N,N,..." ~doc)

let total_ops_arg =
  let doc = "Total operations per iteration (default: paper's 10^7; quick mode: 4x10^5)." in
  Arg.(value & opt (some positive) None & info [ "ops" ] ~docv:"N" ~doc)

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
  Arg.(value & opt (some output_path) None & info [ "json" ] ~docv:"PATH" ~doc)

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

(* ------------------------------------------------------------------ *)
(* Storms: subjects over Harness.Storm (DESIGN.md §7).  Victim domains
   park (--park) or die (--kill) at seed-chosen protocol points while
   the rest keep operating; wait-freedom means the survivors finish,
   and the one conservation audit checks what came out. *)

module Storm = Harness.Storm

(* The flags every storm shares, each defined once.  No fault is armed
   unless --park or --kill asks for one. *)
let faults_term ~victims =
  let seed =
    let doc = "Fault-plan seed; a failure replays from it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let park =
    let doc = "Arm Park: victims stall $(docv) microseconds at seed-chosen points (0: none)." in
    Arg.(value & opt non_negative 0 & info [ "park" ] ~docv:"UNITS" ~doc)
  in
  let kill =
    let doc = "Arm Die instead: victims crash at seed-chosen protocol points." in
    Arg.(value & flag & info [ "kill" ] ~doc)
  in
  let victims_arg =
    let doc = "The first $(docv) domains are victims (default: half, at least one, if armed)." in
    Arg.(value & opt (some non_negative) None & info [ "victims" ] ~docv:"K" ~doc)
  in
  Term.(
    const (fun seed park kill victims -> { Storm.seed; park; kill; victims })
    $ seed $ park $ kill
    $ if victims then victims_arg else const None)

let ops_arg ~default doc = Arg.(value & opt positive default & info [ "ops" ] ~docv:"N" ~doc)

let domains_arg ?(range = thread_count) name ~default doc =
  Arg.(value & opt range default & info [ name ] ~docv:"N" ~doc)

let storm title subject shape ~domains ~ops faults =
  Printf.printf "%s: %d domains%s (%d victims), %d values per producer\n  plan: %s\n%!" title
    domains
    (match shape with
    | Storm.Pairs -> ", all-pairs"
    | Split n -> Printf.sprintf " = %d producer(s) + %d consumer(s)" n (domains - n))
    (Storm.victims faults ~domains) ops (Storm.describe faults);
  exit (Storm.report subject (Storm.run subject shape ~domains ~ops faults))

let inject_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let run threads ops faults =
    let q = Q.create () in
    storm "Fault-injection storm [wf]"
      (Storm.subject
         ~footprint:(fun fmt ->
           Format.fprintf fmt "Queue snapshot:@.%a" Obs.Snapshot.pp (Q.snapshot q))
         (fun () ->
           let h = Q.register q in
           (* the paper's option-returning dequeue, not the separate
              dequeue_or entry point the other subjects use *)
           Storm.single ~enqueue:(Q.enqueue q h)
             ~dequeue_or:(fun d -> Option.value (Q.dequeue q h) ~default:d)
             ~retire:(fun () -> Q.retire q h)))
      Pairs ~domains:threads ~ops faults
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Fault-injection storm on the wait-free queue: every domain enqueues and dequeues while \
          victims stall (--park) or crash (--kill) at seed-chosen protocol points")
    Term.(
      const run
      $ domains_arg "threads" ~default:8 "Storm domains."
      $ ops_arg ~default:20_000 "Enqueue/dequeue pairs per domain."
      $ faults_term ~victims:true)

let shard_cmd =
  let module R = Shard.Storm in
  let run shards batch threads ops bounded faults =
    let t = R.create ~shards ?capacity:bounded ~rebalance_every:64 () in
    storm
      (Printf.sprintf "Shard storm [%d shards, batch %d%s]" shards batch
         (match bounded with Some c -> Printf.sprintf ", bounded at %d/shard" c | None -> ""))
      (Storm.subject ~batch
         ~footprint:(fun fmt ->
           Format.fprintf fmt "Per-shard breakdown:@.%a" R.pp_snapshot_table t)
         (fun () ->
           let h = R.register t in
           {
             Storm.enqueue = R.enq_batch t h;
             dequeue = (fun buf -> R.deq_batch_into t h buf ~default:(-1));
             retire = (fun () -> R.retire t h);
           }))
      Pairs ~domains:threads ~ops faults
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Sharded-router storm: N shards exchanging k-value FAA batches across domains, \
          optionally bounded, under fault injection (batch windows included)")
    Term.(
      const run
      $ Arg.(value & opt positive 4 & info [ "shards" ] ~docv:"S" ~doc:"Router shards.")
      $ Arg.(value & opt positive 4 & info [ "batch" ] ~docv:"K" ~doc:"Values per batch operation.")
      $ domains_arg "threads" ~default:8 "Storm domains."
      $ ops_arg ~default:20_000 "Values enqueued per domain."
      $ Arg.(
          value
          & opt (some positive) None
          & info [ "bounded" ] ~docv:"CAP"
              ~doc:"Bound each shard at $(docv) values (backpressure mode).")
      $ faults_term ~victims:true)

let bounded_cmd =
  let module Q = Wfq.Wfqueue_inject in
  let module S = Baselines.Scq in
  let run queue producers consumers cap ops faults =
    if producers + consumers > Harness.Runner.max_threads then begin
      Printf.eprintf "repro bounded: --producers + --consumers must be at most %d\n"
        Harness.Runner.max_threads;
      exit 2
    end;
    (* one spike over three queues, so the EXPERIMENTS.md table comes
       from a single command *)
    let subject =
      match queue with
      | "scq" ->
        (* ring capacity fixed at 2^12 values: bounded by construction *)
        let q = S.create ~order:12 () in
        Storm.subject
          ~footprint:(fun fmt ->
            Format.fprintf fmt "fixed ring of %d value slots (no segments)" (S.capacity q))
          (fun () ->
            let h = S.register q in
            Storm.single ~enqueue:(S.enqueue q h) ~dequeue_or:(S.dequeue_or q h) ~retire:ignore)
      | _ ->
        let bounded = queue = "wf-bounded" in
        let q =
          if bounded then Q.create ~segment_cap:cap ~max_garbage:(max 2 (min 10 (cap - 4))) ()
          else Q.create ()
        in
        (* [allocated_segments] is monotone (recycling never hands the
           budget back), so any sample past the cap is a violation, not
           a race; live + pooled is only read once the storm settled *)
        let invariant ~settled =
          if bounded && Q.allocated_segments q > cap then
            Some (Printf.sprintf "%d segments allocated past cap %d" (Q.allocated_segments q) cap)
          else if bounded && settled && Q.live_segments q + Q.pooled_segments q > cap then
            Some
              (Printf.sprintf "%d live + %d pooled segments past cap %d" (Q.live_segments q)
                 (Q.pooled_segments q) cap)
          else None
        in
        Storm.subject ~invariant
          ~footprint:(fun fmt ->
            Format.fprintf fmt "%d segments allocated, %d live + %d pooled%s, %d cap-pressure waits"
              (Q.allocated_segments q) (Q.live_segments q) (Q.pooled_segments q)
              (if bounded then Printf.sprintf " (cap %d)" cap else "")
              (Q.cap_hits q))
          (fun () ->
            let h = Q.register q in
            Storm.single ~enqueue:(Q.enqueue q h) ~dequeue_or:(Q.dequeue_or q h)
              ~retire:(fun () -> Q.retire q h))
    in
    storm
      (Printf.sprintf "Bounded spike storm [%s]" queue)
      subject (Split producers) ~domains:(producers + consumers) ~ops faults
  in
  Cmd.v
    (Cmd.info "bounded"
       ~doc:
         "Bounded-memory spike storm: producers >> consumers with a hard segment cap, under fault \
          injection; audits the cap and value conservation.  --queue wf-bounded (capped \
          segments), wf (unbounded control), scq (fixed ring)")
    Term.(
      const run
      $ Arg.(
          value
          & opt (enum [ ("wf-bounded", "wf-bounded"); ("wf", "wf"); ("scq", "scq") ]) "wf-bounded"
          & info [ "queue" ] ~docv:"Q" ~doc:"Queue under storm: wf-bounded, wf, or scq.")
      $ domains_arg "producers" ~default:6 "Producer domains (numbered first, so victims first)."
      $ domains_arg "consumers" ~default:2 "Consumer domains."
      $ Arg.(
          value & opt segment_cap 12
          & info [ "cap" ] ~docv:"SEGMENTS" ~doc:"Hard segment cap (wf-bounded only; at least 6).")
      $ ops_arg ~default:10_000 "Values per producer."
      $ faults_term ~victims:true)

(* Role-split storm on the injectable topology variants, laid out to
   each variant's contract: spsc 1p/1c, mpsc (N-1)p/1c, spmc 1p/(N-1)c;
   adaptive runs all-pairs so every domain's first dequeue forces the
   degrade switches. *)
let topology_cmd =
  let single register enqueue dequeue_or retire footprint =
    Storm.subject ~footprint (fun () ->
        let h = register () in
        Storm.single ~enqueue:(enqueue h) ~dequeue_or:(dequeue_or h) ~retire:(fun () -> retire h))
  in
  let snapshot s fmt = Obs.Snapshot.pp fmt s in
  let run variant threads ops faults =
    let shape, domains, subject =
      match variant with
      | "spsc" ->
        let module Q = Topology.Spsc_inject in
        let q = Q.create () in
        ( Storm.Split 1,
          2,
          single (fun () -> Q.register q) (Q.enqueue q) (Q.dequeue_or q) (Q.retire q) (fun fmt ->
              snapshot (Q.snapshot q) fmt) )
      | "mpsc" ->
        let module Q = Topology.Mpsc_inject in
        let q = Q.create () in
        ( Split (threads - 1),
          threads,
          single (fun () -> Q.register q) (Q.enqueue q) (Q.dequeue_or q) (Q.retire q) (fun fmt ->
              snapshot (Q.snapshot q) fmt) )
      | "spmc" ->
        let module Q = Topology.Spmc_inject in
        let q = Q.create () in
        ( Split 1,
          threads,
          single (fun () -> Q.register q) (Q.enqueue q) (Q.dequeue_or q) (Q.retire q) (fun fmt ->
              snapshot (Q.snapshot q) fmt) )
      | _ ->
        let module Q = Topology.Adaptive_inject in
        let q = Q.create () in
        ( Pairs,
          threads,
          single (fun () -> Q.register q) (Q.enqueue q) (Q.dequeue_or q) (Q.retire q) (fun fmt ->
              Format.fprintf fmt "adaptive backend: %s after %d switch(es)@.%a" (Q.mode q)
                (Q.switches q) Obs.Snapshot.pp (Q.snapshot q)) )
    in
    storm (Printf.sprintf "Topology storm [%s]" variant) subject shape ~domains ~ops faults
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:
         "Role-split storm on a specialized topology variant (or the adaptive queue), under fault \
          injection at the Topology-class protocol points")
    Term.(
      const run
      $ Arg.(
          value
          & opt (enum (List.map (fun v -> (v, v)) [ "spsc"; "mpsc"; "spmc"; "adaptive" ]))
              "adaptive"
          & info [ "variant" ] ~docv:"V" ~doc:"Variant: spsc, mpsc, spmc or adaptive.")
      $ domains_arg ~range:(int_range ~hi:Harness.Runner.max_threads 2) "threads" ~default:4
          "Storm domains (at least 2; spsc always runs 2)."
      $ ops_arg ~default:20_000 "Values enqueued per producer."
      $ faults_term ~victims:true)

(* Fan-out/fan-in storm on the effects-based task scheduler: R root
   tasks each spawn K subtasks and await them all, while the worker
   domains (every domain but this one) stall or die at seed-chosen
   points, the scheduler's own windows included.  After [shutdown]
   every promise must be resolved: a completed root carries the exact
   fan-in sum, an aborted or death-resolved root an error, no root or
   subtask is left pending, and no worker still counts as a
   sleeper. *)
let sched_cmd =
  let module S = Sched.Scheduler_inject in
  let run workers tasks subtasks cap faults =
    Printf.printf "Scheduler storm: %d workers, %d roots x %d subtasks%s\n  plan: %s\n%!" workers
      tasks subtasks
      (match cap with Some c -> Printf.sprintf ", injector capped at %d segments" c | None -> "")
      (Storm.describe faults);
    let kill = faults.Storm.kill in
    let driver = Domain.self () in
    let t0 = Primitives.Clock.now_ns () in
    (* each root records its subtasks' promises for the audit *)
    let kids_of = Array.make tasks [] in
    let storm () =
      let sched = S.create ~workers ?injector_cap:cap () in
      let roots =
        Array.init tasks (fun i ->
            S.async sched (fun () ->
                let kids = List.init subtasks (fun j -> S.async sched (fun () -> i + j)) in
                kids_of.(i) <- kids;
                List.fold_left (fun acc k -> acc + S.Promise.await k) 0 kids))
      in
      (* with --kill, once no worker lives only shutdown's sweep and the
         promise backstop can resolve the rest *)
      let live () = List.exists (fun (o : S.pool_obs) -> o.live_workers > 0) (S.obs sched) in
      let settled =
        Storm.await (fun () -> Array.for_all S.Promise.is_resolved roots || (kill && not (live ())))
      in
      (* a wedged run without --kill skips shutdown, which would join
         the wedged workers *)
      if settled || kill then S.shutdown sched;
      (sched, roots, settled || kill)
    in
    let sched, roots, shut =
      match Storm.plan faults with
      | None -> storm ()
      | Some p ->
        Storm.with_controller ~park:Storm.sleep_park
          ~victim:(fun () -> Domain.self () <> driver)
          p storm
    in
    let elapsed_s = Int64.to_float (Int64.sub (Primitives.Clock.now_ns ()) t0) /. 1e9 in
    let expected i = (subtasks * i) + (subtasks * (subtasks - 1) / 2) in
    let stranded = ref 0 and completed = ref 0 and errored = ref 0 and wrong = ref 0 in
    Array.iteri
      (fun i p ->
        match S.Promise.poll p with
        | None -> incr stranded
        | Some (Ok s) -> if s = expected i then incr completed else incr wrong
        | Some (Error _) -> incr errored)
      roots;
    let stranded_kids =
      Array.fold_left
        (fun acc kids ->
          List.fold_left (fun acc p -> if S.Promise.is_resolved p then acc else acc + 1) acc kids)
        0 kids_of
    in
    Printf.printf "\n  %d roots: %d completed, %d errored, %d wrong, %d stranded\n" tasks !completed
      !errored !wrong !stranded;
    Printf.printf "  subtasks: %d stranded; fibers parked %d times\n" stranded_kids
      (S.suspensions sched);
    let total = tasks * (1 + subtasks) in
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
    if (Inject.total_stats ()).Inject.hits > 0 then
      Format.printf "@.Injected faults:@.%a" Inject.pp_stats ();
    let count n what = if n > 0 then [ Printf.sprintf "%d %s" n what ] else [] in
    exit
      (Storm.finish
         (List.concat
            [
              (if shut then []
               else [ Printf.sprintf "deadline: roots unresolved after %.0f s" Storm.deadline_s ]);
              count !stranded "stranded promise(s)";
              count stranded_kids "stranded subtask promise(s)";
              count !wrong "wrong fan-in sum(s)";
              (* after shutdown no worker may still count as asleep,
                 a kill in the park window included *)
              count (if shut then S.sleepers sched else 0) "sleeper registration(s) left raised";
              (if kill then [] else count !errored "root(s) errored without --kill");
            ]))
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Task-scheduler fan-out/fan-in storm over the wait-free injector and work-stealing \
          deques, under fault injection at the scheduler's own protocol points; verifies that no \
          promise is stranded")
    Term.(
      const run
      $ domains_arg "workers" ~default:4 "Worker domains."
      $ Arg.(value & opt positive 10_000 & info [ "tasks" ] ~docv:"R" ~doc:"Root tasks.")
      $ Arg.(
          value & opt non_negative 4
          & info [ "subtasks" ] ~docv:"K" ~doc:"Subtasks spawned per root.")
      $ Arg.(
          value
          & opt (some segment_cap) None
          & info [ "cap" ] ~docv:"SEGMENTS"
              ~doc:"Bound the injector at $(docv) segments (backpressure mode; at least 6).")
      $ faults_term ~victims:false)

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
