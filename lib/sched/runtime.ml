(* The effects-based task runtime over the wait-free queue: the
   ROADMAP's "millions of user requests become tasks" story as a real
   subsystem.  The wait-free queue is the {e global injector} — every
   external submission and every overflow goes through it — and each
   worker domain owns a Chase–Lev deque ([Sched_algo.Deque]) for the
   tasks it spawns, so the common fork-join pattern runs LIFO and
   cache-warm with zero shared-queue traffic, and only load imbalance
   pays a steal CAS.  Fibers are [Effect.Deep] computations.  [await]
   on an unresolved [Promise] first helps: it runs tickets from the
   worker's own deque ([Sched_algo.help]) until the promise resolves,
   so a fork-join parent usually runs its own children inline.  Only
   when the deque runs dry does it capture the continuation as a
   protocol ticket and park it on the promise; resolution re-schedules
   it.

   Admission and shutdown reuse [Sched_protocol] (the model-checked
   claim-once ticket discipline): a ticket is claimed exactly once
   whether it is popped by its owner, dequeued from the injector,
   stolen by a peer, self-aborted by a submitter that lost the
   shutdown race, or swept by the post-join drain.  A bounded injector
   ([?injector_cap], PR 9's [?segment_cap] under the hood) turns task
   floods into backpressure: external submitters block at the
   admission line, while workers — the consumers — never block
   ([try_enqueue] + run-inline overflow), so the cap cannot deadlock
   the pool that must drain it.

   Why no promise is stranded (DESIGN.md §12 for the long form):
   1. every accepted root ticket is claimed exactly once, and both
      claims resolve the promise ([run] to the task's result, [abort]
      to [Error Shutdown]);
   2. a suspended fiber is reachable only through the waiter it
      registered on a promise, and that promise's resolution — which
      is guaranteed by induction on the await DAG, grounded at root
      tickets — turns the waiter back into a queued ticket;
   3. a dead worker's deque stays stealable (death never unlinks it),
      so its tickets are taken by peers or by the shutdown sweep;
   4. the kill windows ([Sched_steal_pending], [Sched_park_pending],
      [Sched_resolve_pending]) all sit {e before} their commit point,
      so a victim killed there has published nothing half-done; a
      death inside a task — run by the worker loop or nested by
      helping — resolves every fiber on the worker's stack with the
      death error, each through its own handler, before the worker
      dies;
   5. the post-join sweep loops until a full pass moves nothing:
      aborting a suspended fiber unwinds it ([discontinue]) and the
      unwind may reschedule continuations, which the next pass
      claims;
   6. the promise registry covers what no sweep can reach.  A ticket
      routed through the injector can be lost by a killed enqueue or
      a killed consumer, so its promise is registered at submit; a
      continuation can be lost the same way, or parked on a promise
      nobody resolves, so a fiber registers its own promise when it
      suspends.  A ticket in a deque needs no entry: no kill window
      follows a deque commit, and 3 and 5 reach it. *)

(* The injector interface: the subset of [Wfq.Wfqueue] the runtime
   needs, declared so the same text instantiates on the production
   build ([Scheduler]) and the probe+inject build
   ([Scheduler_inject]). *)
module type INJECTOR = sig
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
  val try_enqueue : 'a t -> 'a handle -> 'a -> bool
  val dequeue : 'a t -> 'a handle -> 'a option
  val domain_handle : 'a t -> 'a handle
  val retire : 'a t -> 'a handle -> unit
  val approx_length : 'a t -> int
  val snapshot : 'a t -> Obs.Snapshot.t
end

module Make (P : Obs.Probe.S) (I : Inject.S) (Q : INJECTOR) = struct
  module Core = Sched_algo.Make (Wfq.Atomic_prims.Real) (P) (I)

  module Proto =
    Sched_protocol.Make
      (Wfq.Atomic_prims.Real)
      (struct
        type 'a t = 'a Q.t
        type 'a handle = 'a Q.handle

        let enqueue = Q.enqueue
        let dequeue = Q.dequeue
      end)

  module Park = Sched_park.Make (Wfq.Atomic_prims.Real) (I) (Sched_park.Condvar)

  exception Shutdown
  exception Abort_worker

  type task = Proto.ticket

  (* The promise registry: the backstop behind "shutdown strands
     nothing".  The sweep finds every ticket still *in* a queue, but a
     worker killed mid-dequeue takes its ticket with it — the queue's
     documented crashed-consumer semantics lose the element the victim
     was consuming — and a killed [try_enqueue] can lose a ticket
     before it ever linearizes.  Those tickets are unreachable, so the
     guarantee has to live at the promise level: a promise is
     registered wherever its ticket can be lost — before an [async]
     routes it through the injector, and before a suspending fiber
     adds its waiter — and [shutdown] resolves whatever is still
     pending once the sweep runs dry.  An entry is the promise itself,
     its result type hidden. *)
  type reg_entry = Entry : ('a, exn) Core.Promise.t -> reg_entry

  (* Per-task counters: one padded cell per worker, which only that
     worker bumps, and one more ([pool_workers]) shared by every other
     domain, so the per-task path writes no line a peer writes. *)
  type slots = int Atomic.t array

  let make_slots workers : slots =
    Array.init (workers + 1) (fun _ -> Primitives.Padding.make_padded_atomic 0)

  let bump (s : slots) i = ignore (Atomic.fetch_and_add s.(i) 1)
  let unbump (s : slots) i = ignore (Atomic.fetch_and_add s.(i) (-1))
  let sum (s : slots) = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 s

  type pool = {
    pname : string;
    proto : Proto.t;
    injector : task Q.t;
    deques : task Core.Deque.t array;
    park : Park.t;  (** where idle workers sleep; a push wakes one, if any sleeps *)
    pool_workers : int;
    (* Monitoring counters, each on its own cache line so a dying
       worker and a hot completion path do not false-share. *)
    live : int Atomic.t;
    deaths : int Atomic.t;
    exceptions : int Atomic.t;
    aborted : int Atomic.t;
    steal_count : int Atomic.t;
    spawned : slots;
    completed : slots;
    suspended : slots;  (** fibers parked by [Await] after helping, or by [Yield] *)
    registry : reg_entry list Atomic.t;  (** Treiber stack of live promises *)
    reg_count : int Atomic.t;  (** registrations since the last scrub *)
    reg_due : int Atomic.t;  (** scrub when [reg_count] reaches this *)
    reg_lock : Mutex.t;  (** holds a scrub's batch and the shutdown scan apart *)
    scrubbed : int Atomic.t;  (** probe tier: entries the scrubs examined *)
  }

  type t = {
    default : pool;
    pools : pool list Atomic.t;  (** newest first; always contains [default] *)
    mutable domains : unit Domain.t list;  (** guarded by [lock] *)
    lock : Mutex.t;
    shutdown_started : bool Atomic.t;
    shutdown_done : bool Atomic.t;
  }

  (* Worker identity: which scheduler/pool/deque the current domain
     belongs to.  One key per functor instantiation, so a
     [Scheduler_inject] worker is an external domain from
     [Scheduler]'s point of view and vice versa. *)
  type ctx = {
    cpool : pool;
    cdeque : task Core.Deque.t;
    owner : t;
    slot : int;  (** this worker's counter slot in [cpool] *)
    help_run : task -> unit;  (** how an await on this worker runs a ticket it pops *)
  }

  let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  (* The calling domain's counter slot in [pool]. *)
  let slot_of pool =
    match Domain.DLS.get ctx_key with
    | Some c when c.cpool == pool -> c.slot
    | _ -> pool.pool_workers

  type _ Effect.t +=
    | Await : ('a, exn) Core.Promise.t -> ('a, exn) result Effect.t
    | Yield : unit Effect.t

  (* ---------------------------------------------------------------- *)
  (* Promise resolution under fire                                    *)

  (* Resolve, retrying through injected kills: the recovery paths
     (worker-death handler, shutdown abort) must complete their
     resolve even if the [Sched_resolve_pending] window is armed —
     under a [Plan] each point fires once, so the retry is bounded. *)
  let rec resolve_hard prom r =
    match Core.Promise.try_resolve prom r with
    | won -> won
    | exception Inject.Killed _ -> resolve_hard prom r

  (* A task's resolve: an injected kill in the commit window kills
     this worker, but only after the death handler resolves the
     still-pending promise with the death exception — the
     no-stranding contract for [Sched_resolve_pending].  The task is
     counted before its result is published, so whoever sees the
     promise resolved also sees it in [tasks_completed]; a resolve
     that loses or dies takes the count back. *)
  let complete pool prom r =
    let slot = slot_of pool in
    bump pool.completed slot;
    match Core.Promise.try_resolve prom r with
    | won -> if not won then unbump pool.completed slot
    | exception (Inject.Killed _ as death) ->
      unbump pool.completed slot;
      ignore (resolve_hard prom (Error death) : bool);
      raise death

  (* ---------------------------------------------------------------- *)
  (* Promise registry                                                 *)

  let registry_push pool entry =
    let rec go () =
      let cur = Atomic.get pool.registry in
      if not (Atomic.compare_and_set pool.registry cur (entry :: cur)) then go ()
    in
    go ()

  let entry_pending (Entry p) = not (Core.Promise.is_resolved p)

  (* Scrub resolved entries so the registry tracks in-flight promises,
     not history.  A scrub examines every entry, so it runs once the
     registrations since the previous one reach max(64, that scrub's
     survivors): its work stays within a constant factor of the
     registrations even while entries pile up unresolved (a burst of
     roots ahead of the workers), where a fixed period of 64 made it
     quadratic.  [try_lock] keeps scrubs from stacking up; the lock is
     held while the batch is detached so the shutdown scan (which
     takes the same lock) can never run while live entries sit
     outside the stack.  Survivors are merged back atomically on top
     of whatever was pushed concurrently. *)
  let registry_scrub pool =
    if Mutex.try_lock pool.reg_lock then
      Fun.protect ~finally:(fun () -> Mutex.unlock pool.reg_lock) @@ fun () ->
      Atomic.set pool.reg_count 0;
      let batch = Atomic.exchange pool.registry [] in
      let live = List.filter entry_pending batch in
      if P.enabled then ignore (Atomic.fetch_and_add pool.scrubbed (List.length batch));
      Atomic.set pool.reg_due (max 64 (List.length live));
      let rec put () =
        let cur = Atomic.get pool.registry in
        if not (Atomic.compare_and_set pool.registry cur (List.rev_append live cur)) then put ()
      in
      if live <> [] then put ()

  let register_promise pool prom =
    registry_push pool (Entry prom);
    if Atomic.fetch_and_add pool.reg_count 1 + 1 >= Atomic.get pool.reg_due then
      registry_scrub pool

  (* ---------------------------------------------------------------- *)
  (* Ticket routing                                                   *)

  let run_ticket tk = ignore (Proto.claim_run tk : bool)

  (* How an await on a worker runs the tickets it pops while helping.
     A death propagates: out of the awaiting fiber, whose handler
     resolves its promise with the death error, and so on down the
     worker's stack to the worker loop.  Any other exception escaping
     a ticket is counted, as the worker loop counts it. *)
  let help_runner pool tk =
    try run_ticket tk with
    | (Abort_worker | Inject.Killed _) as death -> raise death
    | _ -> ignore (Atomic.fetch_and_add pool.exceptions 1)

  (* Non-blocking admission for workers: [try_enqueue] plus the
     protocol's closed-under-our-feet re-check. *)
  let submit_nonblocking pool tk =
    if not (Proto.accepting pool.proto) then `Rejected
    else if Q.try_enqueue pool.injector (Q.domain_handle pool.injector) tk then begin
      if Proto.accepting pool.proto then Park.wake pool.park
      else ignore (Proto.claim_abort tk : bool) (* aborted: resolution already happened *);
      `Queued
    end
    else `Full

  (* Route a continuation ticket to its home pool.  Continuations
     resume already-admitted work, so they bypass the admission gate:
     during a graceful shutdown the workers (or the post-join sweep)
     still claim them, which is what lets in-flight fan-ins finish
     draining instead of erroring mid-chain. *)
  let schedule pool tk =
    let pushed_local =
      match Domain.DLS.get ctx_key with
      | Some c when c.cpool == pool -> Core.Deque.push c.cdeque tk
      | _ -> false
    in
    if pushed_local then Park.wake pool.park
    else if Q.try_enqueue pool.injector (Q.domain_handle pool.injector) tk then begin
      (* Same push-then-recheck shape as [Sched_protocol.submit],
         against [stopping]: if the stop raced our push, the post-join
         sweep may already have passed our ticket, so run it here — the
         claim CAS makes this a no-op if a worker or the sweep got it
         first.  (A worker pushing to its own deque above needs no
         re-check: the owner drains its deque before exiting.) *)
      if Proto.stopping pool.proto then run_ticket tk else Park.wake pool.park
    end
    else
      (* bounded injector at capacity: run inline rather than block —
         this path is a consumer, and consumers must never wait on the
         admission line they are responsible for draining *)
      run_ticket tk

  (* ---------------------------------------------------------------- *)
  (* Fibers                                                           *)

  (* A parked continuation as a claim-once ticket: resolution
     re-schedules it, the shutdown sweep may instead abort it
     (unwinding the fiber with [Shutdown]); the claim CAS makes the two
     outcomes exclusive. *)
  let resume_ticket k v =
    Proto.ticket
      ~run:(fun () -> Effect.Deep.continue k v)
      ~abort:(fun () -> try Effect.Deep.discontinue k Shutdown with _ -> ())

  (* What a root task's ticket, fiber and effect handler share; each
     closure over it holds one word of environment.  Once [listed],
     its promise stays in the registry until it resolves, so it is
     registered at most once. *)
  type 'a root = {
    rpool : pool;
    rprom : ('a, exn) Core.Promise.t;
    body : unit -> 'a;
    mutable listed : bool;
  }

  let list_root r =
    if not r.listed then begin
      r.listed <- true;
      register_promise r.rpool r.rprom
    end

  (* A fiber about to park has its own promise registered first: from
     here its continuation is a ticket the injector can lose, or a
     waiter on a promise nobody resolves. *)
  let suspend r =
    bump r.rpool.suspended (slot_of r.rpool);
    list_root r

  (* One handler per task, since parking registers the task's own
     promise. *)
  let handler r : unit Effect.Deep.effect_handler =
    {
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Await p ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                match Core.Promise.poll p with
                | Some v -> Effect.Deep.continue k v
                | None ->
                  suspend r;
                  ignore
                    (Core.Promise.add_waiter p (fun v -> schedule r.rpool (resume_ticket k v))
                      : bool))
          | Yield ->
            Some
              (fun (k : (b, unit) Effect.Deep.continuation) ->
                suspend r;
                schedule r.rpool (resume_ticket k ()))
          | _ -> None);
    }

  let run_root r =
    match r.body () with
    | v -> complete r.rpool r.rprom (Ok v)
    | exception ((Abort_worker | Inject.Killed _) as death) ->
      (* fault-drill / injected kill: resolve the promise so nothing
         downstream is stranded, then still kill the worker that ran
         us *)
      ignore (resolve_hard r.rprom (Error death) : bool);
      raise death
    | exception e -> complete r.rpool r.rprom (Error e)

  let abort_root r =
    if resolve_hard r.rprom (Error Shutdown) then ignore (Atomic.fetch_and_add r.rpool.aborted 1)

  let root_ticket r =
    Proto.ticket
      ~run:(fun () -> Effect.Deep.try_with run_root r (handler r))
      ~abort:(fun () -> abort_root r)

  (* ---------------------------------------------------------------- *)
  (* Workers                                                          *)

  let worker_loop t pool slot () =
    let my = pool.deques.(slot) in
    Domain.DLS.set ctx_key
      (Some { cpool = pool; cdeque = my; owner = t; slot; help_run = help_runner pool });
    let h = Q.register pool.injector in
    (* Release the handle on every exit path — normal drain-out or
       death — so a dead worker never pins segment reclamation; its
       deque needs no such release: it stays stealable forever. *)
    Fun.protect ~finally:(fun () ->
        Domain.DLS.set ctx_key None;
        Q.retire pool.injector h;
        ignore (Atomic.fetch_and_add pool.live (-1)))
    @@ fun () ->
    let n = Array.length pool.deques in
    let steal_sweep () =
      let rec go i =
        if i >= n - 1 then None
        else
          match Core.Deque.steal pool.deques.((slot + 1 + i) mod n) with
          | Some _ as r ->
            ignore (Atomic.fetch_and_add pool.steal_count 1);
            r
          | None -> go (i + 1)
      in
      go 0
    in
    (* Own deque (LIFO, uncontended) → injector (the fairness source:
       external work and overflow) → steal (load balancing).  Exit
       needs [stopping] read before the injector dequeue, exactly the
       [Sched_protocol.worker_step] argument; the own-deque pop above
       it is safe because only this worker pushes there, and the steal
       sweep below is safe because a peer deque can only be refilled
       by its (live) owner, which then drains it itself or stays to be
       swept again.  [step] hands back the option that pop, dequeue or
       steal returned, so finding a task allocates nothing; after a
       [None], [!stopped] says whether to exit. *)
    let stopped = ref false in
    let step () =
      match Core.Deque.pop my with
      | Some _ as found -> found
      | None -> (
        stopped := Proto.stopping pool.proto;
        match Q.dequeue pool.injector h with
        | Some _ as found -> found
        | None -> steal_sweep ())
    in
    let stopping () = Proto.stopping pool.proto in
    (* [Park.park]'s look for work: [Some None] means exit *)
    let recheck () =
      match step () with Some _ as found -> Some found | None -> if !stopped then Some None else None
    in
    let rec loop idle_spins =
      let outcome =
        (* Fault isolation: an exception escaping a ticket must not
           silently shrink the pool; [Abort_worker] and an injected
           [Killed] are the deliberate death channels, visible in
           [worker_deaths]. *)
        try
          match step () with
          | Some tk ->
            run_ticket tk;
            `Ran
          | None when !stopped -> `Exit
          | None when idle_spins < 64 ->
            (* submissions are bursty: spin a little before sleeping *)
            Domain.cpu_relax ();
            `Idle
          | None -> (
            match Park.park pool.park ~stopping ~recheck with
            | Some (Some tk) ->
              run_ticket tk;
              `Ran
            | Some None -> `Exit
            | None -> `Ran (* woken: look again, with a fresh spin budget *))
        with
        | Abort_worker | Inject.Killed _ -> `Died
        | _exn ->
          ignore (Atomic.fetch_and_add pool.exceptions 1);
          `Ran
      in
      match outcome with
      | `Ran -> loop 0
      | `Idle -> loop (idle_spins + 1)
      | `Exit -> ()
      | `Died -> ignore (Atomic.fetch_and_add pool.deaths 1)
    in
    loop 0

  (* ---------------------------------------------------------------- *)
  (* Construction                                                     *)

  let make_pool ~name ~workers ~injector_cap ~deque_capacity =
    if workers < 1 then invalid_arg "Sched: a pool needs at least one worker";
    let injector =
      match injector_cap with
      | Some cap ->
        if cap < 6 then invalid_arg "Sched: injector_cap must be >= 6";
        (* keep the cleanup threshold under the cap so a small bounded
           injector can still recycle segments (cap >= max_garbage + 4
           is the queue's own floor) *)
        Q.create ~segment_cap:cap ~max_garbage:(max 2 (min 10 (cap - 4))) ()
      | None -> Q.create ()
    in
    {
      pname = name;
      proto = Proto.create injector;
      injector;
      deques = Array.init workers (fun _ -> Core.Deque.create ~capacity:deque_capacity ());
      park = Park.create ();
      pool_workers = workers;
      live = Primitives.Padding.make_padded_atomic workers;
      deaths = Primitives.Padding.make_padded_atomic 0;
      exceptions = Primitives.Padding.make_padded_atomic 0;
      aborted = Primitives.Padding.make_padded_atomic 0;
      steal_count = Primitives.Padding.make_padded_atomic 0;
      spawned = make_slots workers;
      completed = make_slots workers;
      suspended = make_slots workers;
      registry = Atomic.make [];
      reg_count = Primitives.Padding.make_padded_atomic 0;
      reg_due = Atomic.make 64;
      reg_lock = Mutex.create ();
      scrubbed = Atomic.make 0;
    }

  let default_pool_name = "default"

  let create ?workers ?injector_cap ?(deque_capacity = 256) () =
    let n =
      match workers with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count () - 1)
    in
    let default = make_pool ~name:default_pool_name ~workers:n ~injector_cap ~deque_capacity in
    let t =
      {
        default;
        pools = Primitives.Padding.make_padded_atomic [ default ];
        domains = [];
        lock = Mutex.create ();
        shutdown_started = Atomic.make false;
        shutdown_done = Atomic.make false;
      }
    in
    t.domains <- List.init n (fun slot -> Domain.spawn (worker_loop t default slot));
    t

  (* A micropool: its own injector, deques and worker domains, named
     for routing.  Stealing never crosses pools, so a tenant's burst
     cannot starve another's workers — the multi-tenant isolation the
     ISSUE asks for. *)
  let add_pool ?injector_cap ?(deque_capacity = 256) t ~name ~workers =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
    if Atomic.get t.shutdown_started then invalid_arg "Sched.add_pool: scheduler is shut down";
    if List.exists (fun p -> String.equal p.pname name) (Atomic.get t.pools) then
      invalid_arg ("Sched.add_pool: duplicate pool name " ^ name);
    let pool = make_pool ~name ~workers ~injector_cap ~deque_capacity in
    Atomic.set t.pools (pool :: Atomic.get t.pools);
    t.domains <- List.init workers (fun slot -> Domain.spawn (worker_loop t pool slot)) @ t.domains

  let find_pool t name =
    match List.find_opt (fun p -> String.equal p.pname name) (Atomic.get t.pools) with
    | Some p -> p
    | None -> invalid_arg ("Sched: unknown pool " ^ name)

  let pool_names t = List.rev_map (fun p -> p.pname) (Atomic.get t.pools)

  (* ---------------------------------------------------------------- *)
  (* Submission                                                       *)

  (* The injector route, for a worker: register first, since from here
     the ticket can be lost (a killed enqueue, or later a killed
     consumer); non-blocking, because a worker is a consumer and must
     never wait on the admission line it drains — at capacity the
     ticket runs depth-first right now. *)
  let submit_injected r tk =
    list_root r;
    match submit_nonblocking r.rpool tk with
    | `Queued -> ()
    | `Full -> run_ticket tk
    | `Rejected -> invalid_arg "Sched.async: scheduler is shut down"

  let submit_root pool prom body =
    let r = { rpool = pool; rprom = prom; body; listed = false } in
    let tk = root_ticket r in
    match Domain.DLS.get ctx_key with
    | Some c when c.cpool == pool ->
      (* spawn: LIFO on our own deque, with no registry entry (no kill
         window follows the push, and the deque stays reachable by
         thieves and the sweep); overflow to the injector *)
      bump pool.spawned c.slot;
      if Core.Deque.push c.cdeque tk then Park.wake pool.park else submit_injected r tk
    | Some _ ->
      (* a worker of another pool (or scheduler) *)
      bump pool.spawned pool.pool_workers;
      submit_injected r tk
    | None -> (
      (* external domain: the blocking submit IS the backpressure — a
         bounded injector parks the submitter at the admission line *)
      bump pool.spawned pool.pool_workers;
      list_root r;
      match Proto.submit_ticket pool.proto (Q.domain_handle pool.injector) tk with
      | Proto.Rejected -> invalid_arg "Sched.async: scheduler is shut down"
      | Proto.Accepted -> Park.wake pool.park
      | Proto.Aborted -> ())

  let async ?pool t f =
    let p =
      match pool with
      | Some name -> find_pool t name
      | None -> (
        match Domain.DLS.get ctx_key with
        | Some c when c.owner == t -> c.cpool (* spawn stays in the fiber's pool *)
        | _ -> t.default)
    in
    let prom = Core.Promise.create () in
    submit_root p prom f;
    prom

  let yield () = try Effect.perform Yield with Effect.Unhandled _ -> Domain.cpu_relax ()

  (* ---------------------------------------------------------------- *)
  (* Awaiting                                                         *)

  module Promise = struct
    type 'a t = ('a, exn) Core.Promise.t

    let poll = Core.Promise.poll
    let is_resolved = Core.Promise.is_resolved

    (* External promises: app-resolved rendezvous cells ([async] roots
       resolve themselves).  The scheduler guarantees resolution for
       every promise it creates; a fiber awaiting an external promise
       the app never resolves stays parked — external resolution is
       the app's contract, and shutdown does not invent results for
       it.  (Once the app does resolve — even post-shutdown — the
       parked continuation still runs: [schedule]'s stopping re-check
       runs it inline on the resolver's domain if the workers and the
       sweep are already gone.) *)
    let create () : 'a t = Core.Promise.create ()
    let resolve p v = Core.Promise.try_resolve p (Ok v)
    let reject p e = Core.Promise.try_resolve p (Error e)

    (* Off-fiber wait: external domains (and anything else outside a
       handler) block on a condition variable armed by a waiter. *)
    let block p =
      let m = Mutex.create () in
      let c = Condition.create () in
      let cell = ref None in
      ignore
        (Core.Promise.add_waiter p (fun r ->
             Mutex.lock m;
             cell := Some r;
             Condition.broadcast c;
             Mutex.unlock m)
          : bool);
      Mutex.lock m;
      while Option.is_none !cell do
        Condition.wait c m
      done;
      let r = match !cell with Some r -> r | None -> assert false in
      Mutex.unlock m;
      r

    (* On a worker this first helps: it runs tickets from the worker's
       own deque until [p] resolves ([Core.help]).  If the deque runs
       dry first, a fiber suspends (the worker moves on to other
       tasks); elsewhere the calling domain blocks. *)
    let result p =
      match Core.Promise.poll p with
      | Some r -> r
      | None -> (
        let helped =
          match Domain.DLS.get ctx_key with
          | Some c -> Core.help c.cdeque p c.help_run
          | None -> None
        in
        match helped with
        | Some r -> r
        | None -> ( try Effect.perform (Await p) with Effect.Unhandled _ -> block p))

    let await p = match result p with Ok v -> v | Error e -> raise e
  end

  (* ---------------------------------------------------------------- *)
  (* Monitoring                                                       *)

  type pool_obs = {
    name : string;
    workers : int;
    live_workers : int;
    worker_deaths : int;
    task_exceptions : int;
    tasks_completed : int;
    aborted_promises : int;
    tasks_spawned : int;
    steals : int;
    backlog : int;  (** injector + deques, racy *)
  }

  let pool_backlog p =
    Q.approx_length p.injector
    + Array.fold_left (fun acc d -> acc + Core.Deque.length d) 0 p.deques

  let observe_pool p =
    {
      name = p.pname;
      workers = p.pool_workers;
      live_workers = Atomic.get p.live;
      worker_deaths = Atomic.get p.deaths;
      task_exceptions = Atomic.get p.exceptions;
      tasks_completed = sum p.completed;
      aborted_promises = Atomic.get p.aborted;
      tasks_spawned = sum p.spawned;
      steals = Atomic.get p.steal_count;
      backlog = pool_backlog p;
    }

  let obs t = List.rev_map observe_pool (Atomic.get t.pools) (* default first *)

  let over_pools t f = List.fold_left (fun acc p -> acc + f p) 0 (Atomic.get t.pools)

  (* Workers registered as sleepers, over all pools: after [shutdown]
     it must read 0, kills in the park window included. *)
  let sleepers t = over_pools t (fun p -> Park.sleepers p.park)

  (* Fibers parked so far, over all pools: an [Await] whose promise
     was still pending after helping, or a [Yield].  Kept in
     production builds, since helping makes parking rare. *)
  let suspensions t = over_pools t (fun p -> sum p.suspended)

  (* Registry entries the scrubs examined, over all pools; probe
     builds only (0 in production). *)
  let scrub_examined t = over_pools t (fun p -> Atomic.get p.scrubbed)

  let pending t = over_pools t pool_backlog
  let injector_snapshot t name = Q.snapshot (find_pool t name).injector

  (* ---------------------------------------------------------------- *)
  (* Shutdown                                                         *)

  let shutdown t =
    if Atomic.compare_and_set t.shutdown_started false true then begin
      let pools = Atomic.get t.pools in
      (* Gate order matters per pool ([accepting] then [stopping], see
         Sched_protocol); across pools, close all admission first so a
         fan-out spanning pools cannot re-admit into a pool that
         already drained. *)
      List.iter (fun p -> Proto.begin_shutdown p.proto) pools;
      List.iter (fun p -> Park.wake_all p.park) pools;
      Mutex.lock t.lock;
      let ds = t.domains in
      t.domains <- [];
      Mutex.unlock t.lock;
      List.iter Domain.join ds;
      (* Post-join sweep: claim-and-abort everything still queued, in
         injectors and deques alike.  Loop until a full pass moves
         nothing — aborting a suspended fiber unwinds it here, and the
         unwind can reschedule continuations into the (now
         worker-less) injector, which the next pass claims.  Injected
         kills during the sweep claim nothing (all windows are
         pre-commit), so retrying is sound. *)
      let abort_one tk = try ignore (Proto.claim_abort tk : bool) with _ -> () in
      let sweep_pool p =
        let moved = ref 0 in
        let h = ref (Q.register p.injector) in
        let rec drain_injector () =
          match Q.dequeue p.injector !h with
          | Some tk ->
            incr moved;
            abort_one tk;
            drain_injector ()
          | None -> ()
          | exception Inject.Killed _ ->
            Q.retire p.injector !h;
            h := Q.register p.injector;
            drain_injector ()
        in
        drain_injector ();
        Q.retire p.injector !h;
        Array.iter
          (fun d ->
            let rec drain_deque () =
              match Core.Deque.steal d with
              | Some tk ->
                incr moved;
                abort_one tk;
                drain_deque ()
              | None -> ()
              | exception Inject.Killed _ -> drain_deque ()
            in
            drain_deque ())
          p.deques;
        !moved
      in
      let rec sweep () =
        if List.fold_left (fun acc p -> acc + sweep_pool p) 0 pools > 0 then sweep ()
      in
      sweep ();
      (* Promise backstop: the sweep reaches every ticket still in a
         queue, but a ticket can be unreachable — a worker killed
         mid-dequeue took it with it (the queue's crashed-consumer
         semantics), or a killed [try_enqueue] lost it before it
         linearized.  Resolve every registered promise still pending
         with [Error Shutdown].  Firing a waiter can resume a fiber
         inline here ([schedule] runs tickets on this domain once
         [stopping] is set), and that fiber can register new promises
         on a rejected spawn — so loop, re-sweeping, until a pass
         resolves nothing. *)
      let backstop_pool p =
        Mutex.lock p.reg_lock;
        let batch = Atomic.exchange p.registry [] in
        Mutex.unlock p.reg_lock;
        List.fold_left
          (fun acc (Entry prom) ->
            if resolve_hard prom (Error Shutdown) then begin
              ignore (Atomic.fetch_and_add p.aborted 1);
              acc + 1
            end
            else acc)
          0 batch
      in
      let rec backstop () =
        let n = List.fold_left (fun acc p -> acc + backstop_pool p) 0 pools in
        sweep ();
        if n > 0 then backstop ()
      in
      backstop ();
      Atomic.set t.shutdown_done true
    end
    else
      (* Idempotent; every caller returns only once the first shutdown
         finished its join + sweep. *)
      while not (Atomic.get t.shutdown_done) do
        Domain.cpu_relax ()
      done
end
