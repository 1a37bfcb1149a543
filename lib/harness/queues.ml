type ops = {
  enqueue : int -> unit;
  dequeue : unit -> int option;
  dequeue_or : int -> int;
  release : unit -> unit;
}

(* Build an [ops], deriving [dequeue_or] from the option-returning
   dequeue when the implementation has no native one.  The derived
   form still pays the implementation's [Some] box; queues with a real
   word-returning path (the WF family, SCQ) pass [~dequeue_or] so the
   alloc rows measure the genuine allocation-free dequeue. *)
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

(* The operations every WF build shares, so one builder serves the
   production queue, the instrumented build and the LL/SC-emulated
   one: each registers a handle per domain, retires it on [release]
   (so steady-state iterations on one instance measure the queue, not
   an ever-growing ring of dead handles; the next iteration's register
   recycles the slot) and reports its path counters and snapshot. *)
module type WF = sig
  type 'a t
  type 'a handle

  val create :
    ?patience:int ->
    ?segment_shift:int ->
    ?max_garbage:int ->
    ?reclamation:bool ->
    ?segment_cap:int ->
    unit ->
    'a t

  val register : 'a t -> 'a handle
  val enqueue : 'a t -> 'a handle -> 'a -> unit
  val dequeue : 'a t -> 'a handle -> 'a option
  val dequeue_or : 'a t -> 'a handle -> 'a -> 'a
  val retire : 'a t -> 'a handle -> unit
  val stats : 'a t -> Wfq.Op_stats.t
  val reset_stats : 'a t -> unit
  val snapshot : 'a t -> Obs.Snapshot.t
end

let wf_build (module Q : WF) ~name ~description ?patience ?segment_shift ?max_garbage
    ?reclamation ?segment_cap () =
  {
    name;
    description;
    is_real_queue = true;
    make =
      (fun () ->
        let q = Q.create ?patience ?segment_shift ?max_garbage ?reclamation ?segment_cap () in
        {
          iname = name;
          register =
            (fun () ->
              let h = Q.register q in
              make_ops
                ~enqueue:(fun v -> Q.enqueue q h v)
                ~dequeue:(fun () -> Q.dequeue q h)
                ~dequeue_or:(fun d -> Q.dequeue_or q h d)
                ~release:(fun () -> Q.retire q h)
                ());
          op_stats = (fun () -> Some (Q.stats q));
          reset_op_stats = (fun () -> Q.reset_stats q);
          snapshot = (fun () -> Some (Q.snapshot q));
        });
  }

let wf ?(patience = 10) ?segment_shift ?max_garbage ?reclamation ?name () =
  wf_build
    (module Wfq.Wfqueue)
    ~name:(Option.value name ~default:(Printf.sprintf "wf-%d" patience))
    ~description:
      (Printf.sprintf "wait-free queue (patience %d%s)" patience
         (match reclamation with Some false -> ", reclamation off" | Some true | None -> ""))
    ~patience ?segment_shift ?max_garbage ?reclamation ()

(* Same queue, instrumented instantiation: the probe's event tier (CAS
   failures, cells skipped, helping) is compiled in.  [repro stats]
   runs it; its alloc row checks that the event tier adds no words. *)
let wf_obs ?(patience = 10) ?segment_shift ?max_garbage ?reclamation ?name () =
  wf_build
    (module Wfq.Wfqueue_obs)
    ~name:(Option.value name ~default:(Printf.sprintf "wf-%d-obs" patience))
    ~description:
      (Printf.sprintf "wait-free queue (patience %d), telemetry probe enabled" patience)
    ~patience ?segment_shift ?max_garbage ?reclamation ()

(* The bounded-memory build of the production queue (DESIGN.md §11):
   a hard segment cap with freelist-recycled segments.  The bench ops
   use the plain (blocking-backpressure) enqueue — the pairs workload
   never approaches the cap, so the row prices the bounded build's
   bookkeeping (budget FAA per fresh segment, admission fields), not
   contention on the cap. *)
let wf_bounded ?(patience = 10) ?(segment_cap = 64) ?segment_shift ?max_garbage ?name () =
  wf_build
    (module Wfq.Wfqueue)
    ~name:(Option.value name ~default:"wf-bounded")
    ~description:
      (Printf.sprintf "wait-free queue, bounded-memory mode (cap %d segments)" segment_cap)
    ~patience ~segment_cap ?segment_shift ?max_garbage ()

let wf_llsc =
  wf_build
    (module Wfq.Wfqueue_llsc)
    ~name:"wf-llsc"
    ~description:"wait-free queue with CAS-emulated FAA (the paper's Power7 setup; lock-free)"
    ()

(* The baselines: ops only, no path counters or snapshot. *)
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
    wf_bounded ();
    wf_llsc;
    scq ();
    lcrq ();
    ccqueue;
    msqueue;
    faa;
  ]

let figure2_set =
  [
    wf ~patience:10 ();
    wf ~patience:0 ();
    wf_bounded ();
    scq ();
    lcrq ();
    ccqueue;
    msqueue;
    faa;
  ]
let find name = List.find_opt (fun f -> f.name = name) all
let names () = List.map (fun f -> f.name) all
