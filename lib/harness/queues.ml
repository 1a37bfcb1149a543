type ops = {
  enqueue : int -> unit;
  dequeue : unit -> int option;
  dequeue_or : int -> int;
  release : unit -> unit;
}

(* Build an [ops], deriving [dequeue_or] from the option-returning
   dequeue when the implementation has no native one.  The derived
   form still pays the implementation's [Some] box; queues with a real
   word-returning path (the WF family since PR 6) pass [~dequeue_or]
   so the alloc probe and the int-vs-boxed rows measure the genuine
   allocation-free dequeue. *)
let make_ops ?dequeue_or ~enqueue ~dequeue ~release () =
  let dequeue_or =
    match dequeue_or with
    | Some f -> f
    | None -> fun default -> ( match dequeue () with Some v -> v | None -> default)
  in
  { enqueue; dequeue; dequeue_or; release }

type instance = {
  iname : string;
  register : unit -> ops;
  op_stats : unit -> Wfq.Op_stats.t option;
  reset_op_stats : unit -> unit;
  snapshot : unit -> Obs.Snapshot.t option;
}

type factory = {
  name : string;
  description : string;
  is_real_queue : bool;
  make : unit -> instance;
}

let wf ?(patience = 10) ?segment_shift ?max_garbage ?reclamation ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "wf-%d" patience in
  {
    name;
    description =
      Printf.sprintf "wait-free queue (patience %d%s)" patience
        (match reclamation with Some false -> ", reclamation off" | Some true | None -> "");
    is_real_queue = true;
    make =
      (fun () ->
        let q = Wfq.Wfqueue.create ~patience ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Wfq.Wfqueue.register q in
              (* retire on release so steady-state iterations on one
                 instance measure the queue, not an ever-growing ring
                 of dead handles; the next iteration's register
                 recycles the slot *)
              make_ops
                ~enqueue:(fun v -> Wfq.Wfqueue.enqueue q h v)
                ~dequeue:(fun () -> Wfq.Wfqueue.dequeue q h)
                ~dequeue_or:(fun d -> Wfq.Wfqueue.dequeue_or q h d)
                ~release:(fun () -> Wfq.Wfqueue.retire q h)
                ());
          op_stats = (fun () -> Some (Wfq.Wfqueue.stats q));
          reset_op_stats = (fun () -> Wfq.Wfqueue.reset_stats q);
          snapshot = (fun () -> Some (Wfq.Wfqueue.snapshot q));
        });
  }

(* Same queue, instrumented instantiation: the probe's event tier (CAS
   failures, cells skipped, helping) is compiled in.  Benchmarked
   side-by-side with [wf] to price the instrumentation; used by
   [repro stats] and the bench telemetry block. *)
let wf_obs ?(patience = 10) ?segment_shift ?max_garbage ?reclamation ?name () =
  let name =
    match name with Some n -> n | None -> Printf.sprintf "wf-%d-obs" patience
  in
  {
    name;
    description =
      Printf.sprintf "wait-free queue (patience %d), telemetry probe enabled" patience;
    is_real_queue = true;
    make =
      (fun () ->
        let q = Wfq.Wfqueue_obs.create ~patience ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Wfq.Wfqueue_obs.register q in
              make_ops
                ~enqueue:(fun v -> Wfq.Wfqueue_obs.enqueue q h v)
                ~dequeue:(fun () -> Wfq.Wfqueue_obs.dequeue q h)
                ~dequeue_or:(fun d -> Wfq.Wfqueue_obs.dequeue_or q h d)
                ~release:(fun () -> Wfq.Wfqueue_obs.retire q h)
                ());
          op_stats = (fun () -> Some (Wfq.Wfqueue_obs.stats q));
          reset_op_stats = (fun () -> Wfq.Wfqueue_obs.reset_stats q);
          snapshot = (fun () -> Some (Wfq.Wfqueue_obs.snapshot q));
        });
  }

(* The int-specialized facade ([Wfqueue_int]): same compiled queue as
   [wf], but the per-domain ops route dequeues through the
   allocation-free [dequeue_or] (EMPTY = min_int sentinel, outside the
   bench payload domain of small non-negative ints) and wrap the
   option only when a caller insists on [dequeue].  Benched against
   [wf] to price the generic API's option box — the last hot-path
   allocation the PR-6 audit left by design. *)
let wf_int ?(patience = 10) ?segment_shift ?max_garbage ?reclamation ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "wf-int-%d" patience in
  {
    name;
    description =
      Printf.sprintf "wait-free queue, int-specialized API (patience %d, no option box)"
        patience;
    is_real_queue = true;
    make =
      (fun () ->
        let q = Wfq.Wfqueue_int.create ~patience ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Wfq.Wfqueue_int.register q in
              make_ops
                ~enqueue:(fun v -> Wfq.Wfqueue_int.enqueue q h v)
                ~dequeue:(fun () ->
                  let v = Wfq.Wfqueue_int.dequeue_or q h min_int in
                  if v = min_int then None else Some v)
                ~dequeue_or:(fun d -> Wfq.Wfqueue_int.dequeue_or q h d)
                ~release:(fun () -> Wfq.Wfqueue_int.retire q h)
                ());
          op_stats = (fun () -> Some (Wfq.Wfqueue_int.stats q));
          reset_op_stats = (fun () -> Wfq.Wfqueue_int.reset_stats q);
          snapshot = (fun () -> Some (Wfq.Wfqueue_int.snapshot q));
        });
  }

(* Sharded router over production queues: the d-bounded relaxed-FIFO
   deployment shape.  One factory per shard count so the bench tables
   show the scaling curve. *)
let wf_shard ?(shards = 2) ?(patience = 10) ?capacity ?rebalance_every ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "wf-shard-%d" shards in
  {
    name;
    description =
      Printf.sprintf "sharded router over %d wait-free queues (relaxed FIFO%s)" shards
        (match capacity with None -> "" | Some c -> Printf.sprintf ", bounded %d/shard" c);
    is_real_queue = true;
    make =
      (fun () ->
        let t = Shard.Wf.create ~shards ?capacity ?rebalance_every ~patience () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Shard.Wf.register t in
              make_ops
                ~enqueue:(fun v -> Shard.Wf.enqueue t h v)
                ~dequeue:(fun () -> Shard.Wf.dequeue t h)
                ~release:(fun () -> Shard.Wf.retire t h)
                ());
          op_stats = (fun () -> Some (Shard.Wf.snapshot t).Obs.Snapshot.ops);
          reset_op_stats = (fun () -> Shard.Wf.reset_stats t);
          snapshot = (fun () -> Some (Shard.Wf.snapshot t));
        });
  }

(* One wait-free queue driven through the k-cell batch operations,
   with client-side buffering: enqueues coalesce into one tail FAA per
   [batch] values, dequeues prefetch up to [batch] values per head
   FAA.  Measures the amortization headroom of the batch path against
   the one-FAA-per-op baseline. *)
let wf_batch ?(batch = 8) ?(patience = 10) ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "wf-batch-%d" batch in
  if batch < 1 then invalid_arg "Queues.wf_batch: batch < 1";
  {
    name;
    description =
      Printf.sprintf "wait-free queue, %d-cell FAA batching (buffering facade)" batch;
    is_real_queue = true;
    make =
      (fun () ->
        let q = Wfq.Wfqueue.create ~patience () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Wfq.Wfqueue.register q in
              let outbuf = Array.make batch 0 in
              let out_len = ref 0 in
              let prefetch = Queue.create () in
              let flush () =
                if !out_len > 0 then begin
                  Wfq.Wfqueue.enq_batch q h (Array.sub outbuf 0 !out_len);
                  out_len := 0
                end
              in
              make_ops
                ~enqueue:(fun v ->
                    outbuf.(!out_len) <- v;
                    incr out_len;
                    if !out_len = batch then flush ())
                ~dequeue:(fun () ->
                    if not (Queue.is_empty prefetch) then Some (Queue.pop prefetch)
                    else begin
                      (* publish our own pending values first so a
                         pairs-style worker can always drain what it
                         produced *)
                      flush ();
                      (* size the ticket batch by the visible backlog
                         so a near-empty queue is not hammered with
                         k-ticket EMPTY batches *)
                      let want = min batch (max 1 (Wfq.Wfqueue.approx_length q)) in
                      let out = Wfq.Wfqueue.deq_batch q h want in
                      Array.iter
                        (function Some v -> Queue.push v prefetch | None -> ())
                        out;
                      if Queue.is_empty prefetch then None else Some (Queue.pop prefetch)
                    end)
                ~release:(fun () ->
                    (* conservation across release: publish buffered
                       values and return prefetched-but-unconsumed
                       ones *)
                    flush ();
                    if not (Queue.is_empty prefetch) then begin
                      let leftovers =
                        Array.init (Queue.length prefetch) (fun _ -> Queue.pop prefetch)
                      in
                      Wfq.Wfqueue.enq_batch q h leftovers
                    end;
                    Wfq.Wfqueue.retire q h)
                ());
          op_stats = (fun () -> Some (Wfq.Wfqueue.stats q));
          reset_op_stats = (fun () -> Wfq.Wfqueue.reset_stats q);
          snapshot = (fun () -> Some (Wfq.Wfqueue.snapshot q));
        });
  }

(* The specialized topology variants.  A bench [ops] uses one handle
   for both roles, which every variant permits (the role claims are
   per-handle, and a retire releases them), so the single-threaded
   pair and the alloc probe are legal on all of them.  They are
   registered in [all] — and deliberately NOT in [figure2_set]: the
   multi-thread pairs workload would put several producers and
   consumers on one queue, which is exactly the contract these
   variants check and reject.  Role-correct multi-domain runs are
   [repro topology]'s storm subjects over [Harness.Storm]. *)

let wf_spsc ?segment_shift ?max_garbage ?reclamation ?name () =
  let name = match name with Some n -> n | None -> "wf-spsc" in
  {
    name;
    description = "specialized SPSC variant (no FAA, no CAS; single producer+consumer)";
    is_real_queue = true;
    make =
      (fun () ->
        let q = Topology.Spsc.create ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Topology.Spsc.register q in
              make_ops
                ~enqueue:(fun v -> Topology.Spsc.enqueue q h v)
                ~dequeue:(fun () -> Topology.Spsc.dequeue q h)
                ~dequeue_or:(fun d -> Topology.Spsc.dequeue_or q h d)
                ~release:(fun () -> Topology.Spsc.retire q h)
                ());
          op_stats = (fun () -> Some (Topology.Spsc.snapshot q).Obs.Snapshot.ops);
          reset_op_stats = (fun () -> Topology.Spsc.reset_stats q);
          snapshot = (fun () -> Some (Topology.Spsc.snapshot q));
        });
  }

let wf_mpsc ?segment_shift ?max_garbage ?reclamation ?name () =
  let name = match name with Some n -> n | None -> "wf-mpsc" in
  {
    name;
    description = "specialized MPSC variant (Jiffy-style: FAA tail, CAS-free single consumer)";
    is_real_queue = true;
    make =
      (fun () ->
        let q = Topology.Mpsc.create ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Topology.Mpsc.register q in
              make_ops
                ~enqueue:(fun v -> Topology.Mpsc.enqueue q h v)
                ~dequeue:(fun () -> Topology.Mpsc.dequeue q h)
                ~dequeue_or:(fun d -> Topology.Mpsc.dequeue_or q h d)
                ~release:(fun () -> Topology.Mpsc.retire q h)
                ());
          op_stats = (fun () -> Some (Topology.Mpsc.snapshot q).Obs.Snapshot.ops);
          reset_op_stats = (fun () -> Topology.Mpsc.reset_stats q);
          snapshot = (fun () -> Some (Topology.Mpsc.snapshot q));
        });
  }

let wf_spmc ?segment_shift ?max_garbage ?reclamation ?name () =
  let name = match name with Some n -> n | None -> "wf-spmc" in
  {
    name;
    description = "specialized SPMC variant (FAA head tickets, CAS-free single producer)";
    is_real_queue = true;
    make =
      (fun () ->
        let q = Topology.Spmc.create ?segment_shift ?max_garbage ?reclamation () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Topology.Spmc.register q in
              make_ops
                ~enqueue:(fun v -> Topology.Spmc.enqueue q h v)
                ~dequeue:(fun () -> Topology.Spmc.dequeue q h)
                ~dequeue_or:(fun d -> Topology.Spmc.dequeue_or q h d)
                ~release:(fun () -> Topology.Spmc.retire q h)
                ());
          op_stats = (fun () -> Some (Topology.Spmc.snapshot q).Obs.Snapshot.ops);
          reset_op_stats = (fun () -> Topology.Spmc.reset_stats q);
          snapshot = (fun () -> Some (Topology.Spmc.snapshot q));
        });
  }

(* Sharded router over topology-adaptive shards.  Safe in any
   workload (it degrades to the general queue once roles multiply),
   so unlike the raw variants it joins [figure2_set] too.  Note the
   role counters are monotone: the bechamel allocate/free cycle
   registers a fresh handle per run, so after the first cycle the
   shards degrade and the measured steady state is the general
   backend plus the dispatch overhead — the honest deployment number
   for handle-churning callers. *)
let wf_shard_adaptive ?(shards = 2) ?capacity ?rebalance_every ?name () =
  let name = match name with Some n -> n | None -> "wf-shard-adaptive" in
  {
    name;
    description =
      Printf.sprintf "sharded router over %d topology-adaptive shards (relaxed FIFO)" shards;
    is_real_queue = true;
    make =
      (fun () ->
        let t = Shard.Adaptive.create ~shards ?capacity ?rebalance_every () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Shard.Adaptive.register t in
              make_ops
                ~enqueue:(fun v -> Shard.Adaptive.enqueue t h v)
                ~dequeue:(fun () -> Shard.Adaptive.dequeue t h)
                ~dequeue_or:(fun d -> Shard.Adaptive.dequeue_or t h d)
                ~release:(fun () -> Shard.Adaptive.retire t h)
                ());
          op_stats = (fun () -> Some (Shard.Adaptive.snapshot t).Obs.Snapshot.ops);
          reset_op_stats = (fun () -> Shard.Adaptive.reset_stats t);
          snapshot = (fun () -> Some (Shard.Adaptive.snapshot t));
        });
  }

let simple name description is_real_queue make_ops =
  {
    name;
    description;
    is_real_queue;
    make =
      (fun () ->
        let register = make_ops () in
        {
          iname = name;
          register;
          op_stats = (fun () -> None);
          reset_op_stats = ignore;
          snapshot = (fun () -> None);
        });
  }

(* The bounded-memory build of the production queue (DESIGN.md §11):
   a hard segment cap with freelist-recycled segments.  The bench ops
   use the plain (blocking-backpressure) enqueue — the pairs workload
   never approaches the cap, so the row prices the bounded build's
   bookkeeping (budget FAA per fresh segment, admission fields), not
   contention on the cap. *)
let wf_bounded ?(patience = 10) ?(segment_cap = 64) ?segment_shift ?max_garbage ?name () =
  let name = match name with Some n -> n | None -> "wf-bounded" in
  {
    name;
    description =
      Printf.sprintf "wait-free queue, bounded-memory mode (cap %d segments)" segment_cap;
    is_real_queue = true;
    make =
      (fun () ->
        let q =
          Wfq.Wfqueue.create ~patience ~segment_cap ?segment_shift ?max_garbage ()
        in
        {
          iname = name;
          register =
            (fun () ->
              let h = Wfq.Wfqueue.register q in
              make_ops
                ~enqueue:(fun v -> Wfq.Wfqueue.enqueue q h v)
                ~dequeue:(fun () -> Wfq.Wfqueue.dequeue q h)
                ~dequeue_or:(fun d -> Wfq.Wfqueue.dequeue_or q h d)
                ~release:(fun () -> Wfq.Wfqueue.retire q h)
                ());
          op_stats = (fun () -> Some (Wfq.Wfqueue.stats q));
          reset_op_stats = (fun () -> Wfq.Wfqueue.reset_stats q);
          snapshot = (fun () -> Some (Wfq.Wfqueue.snapshot q));
        });
  }

(* Nikolaev's SCQ (arXiv:1908.04511): the bounded lock-free ring
   baseline the bounded WF mode is measured against.  Capacity
   2^order; [enqueue] spins on a full ring (the pairs workload keeps
   the backlog at worker count, far below capacity), [dequeue_or] is
   the native allocation-free path. *)
let scq ?(order = 12) ?name () =
  let name = match name with Some n -> n | None -> "scq" in
  simple name
    (Printf.sprintf "SCQ bounded ring, capacity %d (lock-free)" (1 lsl order))
    true
    (fun () ->
      let q = Baselines.Scq.create ~order () in
      fun () ->
        let h = Baselines.Scq.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Scq.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Scq.dequeue q h)
          ~dequeue_or:(fun d -> Baselines.Scq.dequeue_or q h d)
          ~release:ignore ())

let lcrq ?(ring_size = 4096) () =
  simple "lcrq"
    (Printf.sprintf "LCRQ, ring size %d (lock-free)" ring_size)
    true
    (fun () ->
      let q = Baselines.Lcrq.create ~ring_size () in
      fun () ->
        let h = Baselines.Lcrq.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Lcrq.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Lcrq.dequeue q h)
          ~release:ignore ())

let ccqueue =
  simple "ccqueue" "CC-Queue, combining (blocking)" true (fun () ->
      let q = Baselines.Ccqueue.create () in
      fun () ->
        let h = Baselines.Ccqueue.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Ccqueue.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Ccqueue.dequeue q h)
          ~release:ignore ())

let msqueue =
  simple "msqueue" "Michael-Scott queue (lock-free)" true (fun () ->
      let q = Baselines.Msqueue.create () in
      fun () ->
        let h = Baselines.Msqueue.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Msqueue.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Msqueue.dequeue q h)
          ~release:ignore ())

let two_lock =
  simple "two-lock" "Michael-Scott two-lock queue (blocking)" true (fun () ->
      let q = Baselines.Two_lock_queue.create () in
      fun () ->
        let h = Baselines.Two_lock_queue.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Two_lock_queue.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Two_lock_queue.dequeue q h)
          ~release:ignore ())

let mutex =
  simple "mutex" "global mutex around Stdlib.Queue (blocking)" true (fun () ->
      let q = Baselines.Mutex_queue.create () in
      fun () ->
        let h = Baselines.Mutex_queue.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Mutex_queue.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Mutex_queue.dequeue q h)
          ~release:ignore ())

let wf_llsc =
  simple "wf-llsc" "wait-free queue with CAS-emulated FAA (the paper's Power7 setup; lock-free)"
    true (fun () ->
      let q = Wfq.Wfqueue_llsc.create () in
      fun () ->
        let h = Wfq.Wfqueue_llsc.register q in
        make_ops
          ~enqueue:(fun v -> Wfq.Wfqueue_llsc.enqueue q h v)
          ~dequeue:(fun () -> Wfq.Wfqueue_llsc.dequeue q h)
          ~dequeue_or:(fun d -> Wfq.Wfqueue_llsc.dequeue_or q h d)
          ~release:(fun () -> Wfq.Wfqueue_llsc.retire q h) ())

let kp_queue =
  simple "kp" "Kogan-Petrank queue (wait-free, phase-based helping)" true (fun () ->
      let q = Baselines.Kp_queue.create ~max_threads:32 () in
      fun () ->
        let h = Baselines.Kp_queue.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Kp_queue.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Kp_queue.dequeue q h)
          ~release:ignore ())

let faa =
  simple "faa" "FAA microbenchmark (throughput upper bound, not a queue)" false (fun () ->
      let q = Baselines.Faa_bench.create () in
      fun () ->
        let h = Baselines.Faa_bench.register q in
        make_ops
          ~enqueue:(fun v -> Baselines.Faa_bench.enqueue q h v)
          ~dequeue:(fun () -> Baselines.Faa_bench.dequeue q h)
          ~release:ignore ())

let all =
  [
    wf ~patience:10 ();
    wf ~patience:0 ();
    wf_obs ~patience:10 ();
    wf_int ~patience:10 ();
    wf_shard ~shards:2 ();
    wf_shard ~shards:8 ();
    wf_batch ~batch:8 ();
    wf_spsc ();
    wf_mpsc ();
    wf_spmc ();
    wf_shard_adaptive ();
    wf_bounded ();
    wf_llsc;
    scq ();
    lcrq ();
    ccqueue;
    msqueue;
    kp_queue;
    two_lock;
    mutex;
    faa;
  ]

let figure2_set =
  [
    wf ~patience:10 ();
    wf ~patience:0 ();
    wf_int ~patience:10 ();
    wf_shard ~shards:2 ();
    wf_shard ~shards:8 ();
    wf_batch ~batch:8 ();
    wf_shard_adaptive ();
    wf_bounded ();
    scq ();
    lcrq ();
    ccqueue;
    msqueue;
    faa;
  ]
let find name = List.find_opt (fun f -> f.name = name) all
let names () = List.map (fun f -> f.name) all
