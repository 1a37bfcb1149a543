(* The scheduler's lock-free core — promises and per-worker Chase–Lev
   work-stealing deques — as a functor over the atomic primitives, the
   observability probe and the fault injector, exactly like
   [Wfq.Wfqueue_algo]: [Simsched.Sim.Sched_core] instantiates this
   text on the simsched shim and model-checks the steal-vs-pop,
   resolve-vs-await and help-vs-steal races, while the production build
   ([Sched.Scheduler]) compiles both tiers out.

   Per-worker tasks sit in a stealing deque rather than a shared
   ticket queue, whose consumers would all contend on one head FAA:
   here the owner works uncontended at the bottom of its own ring and
   only thieves synchronize at the top, so locally spawned tasks run
   LIFO (cache-warm) and only load imbalance pays a CAS. *)

module Make (A : Wfq.Atomic_prims.S) (P : Obs.Probe.S) (I : Inject.S) = struct
  module Promise = struct
    (* A write-once result cell.  The whole promise is one atomic
       state word: [Pending waiters] until resolution, then [Done r]
       forever.  Registration and resolution both CAS the state, so
       the two races the test suite explores — resolve-vs-resolve
       (exactly-once) and resolve-vs-await (the waiter fires exactly
       once, on whichever side wins) — are decided by single CASes on
       one word.

       Waiters are one-shot closures.  They are registered LIFO (list
       cons) and fired FIFO (reversed at resolution) so fan-in chains
       resume in registration order. *)

    type ('a, 'e) waiter = ('a, 'e) result -> unit

    type ('a, 'e) state =
      | Pending of ('a, 'e) waiter list
      | Done of ('a, 'e) result

    type ('a, 'e) t = ('a, 'e) state A.t

    let create () : ('a, 'e) t = A.make (Pending [])

    let poll p = match A.get p with Done r -> Some r | Pending _ -> None
    let is_resolved p = match A.get p with Done _ -> true | Pending _ -> false

    (* Register [w] to fire on resolution.  If the promise is already
       resolved, [w] fires synchronously, now — the caller must not
       hold locks.  Returns [true] if the waiter was parked, [false]
       if it fired before returning (callers use this only as a
       hint). *)
    let rec add_waiter p w =
      match A.get p with
      | Done r ->
        w r;
        false
      | Pending ws as old ->
        if A.compare_and_set p old (Pending (w :: ws)) then true else add_waiter p w

    (* Resolve to [r] unless someone beat us to it.  Returns [true]
       for the unique winner, which fires every parked waiter before
       returning; losers see [false] and must not touch the waiters.
       The injection point sits between computing the new state and
       committing it: a victim killed there has published nothing, so
       the promise stays [Pending] and any other party (the
       worker-death recovery path, the shutdown drain) can still
       resolve it — the no-stranding argument leans on exactly this
       window being harmless. *)
    let rec try_resolve p r =
      match A.get p with
      | Done _ -> false
      | Pending ws as old ->
        if I.enabled then I.hit Inject.Sched_resolve_pending;
        if A.compare_and_set p old (Done r) then begin
          List.iter (fun w -> w r) (List.rev ws);
          true
        end
        else try_resolve p r
  end

  module Deque = struct
    (* Chase–Lev work-stealing deque on a bounded power-of-two ring.
       One owner pushes and pops at [bottom]; any number of thieves
       CAS [top] forward.  Indices grow monotonically; a cell is
       addressed by [index land mask].

       Why a stale thief can never take a wrong value: a thief reads
       [cells.(t)] and then CASes [top] from [t].  For the slot to
       have been recycled by a push, [bottom] must first reach
       [t + capacity], which the push-side bound ([b - t < capacity])
       permits only after [top] has advanced past [t] — and then the
       thief's CAS (expecting [t]) fails, discarding the stale read.
       The owner-vs-thief race on the last element is decided by the
       same CAS on [top] (pop takes the thief's side for that one
       cell), so every pushed value is taken exactly once.

       Cells hold ['a option] so the taker can null its slot and the
       ring does not pin dead tasks for a full lap. *)

    type 'a t = {
      top : int A.t;  (** next index thieves steal from *)
      bottom : int A.t;  (** next index the owner pushes to *)
      cells : 'a option A.t array;
      mask : int;
      steals : int A.t;  (** event tier: successful steals (probe builds) *)
      steal_races : int A.t;  (** event tier: lost top CASes *)
    }

    let create ?(capacity = 256) () =
      if capacity < 2 || capacity land (capacity - 1) <> 0 then
        invalid_arg "Sched_algo.Deque.create: capacity must be a power of two >= 2";
      {
        top = A.make_contended 0;
        bottom = A.make_contended 0;
        cells = Array.init capacity (fun _ -> A.make None);
        mask = capacity - 1;
        steals = A.make 0;
        steal_races = A.make 0;
      }

    let capacity d = d.mask + 1
    let length d = max 0 (A.get d.bottom - A.get d.top) (* racy, monitoring only *)
    let steals d = A.get d.steals
    let steal_races d = A.get d.steal_races

    (* Owner only.  Returns [false] when the ring is full ([capacity]
       unpopped items); the caller overflows to the shared injector. *)
    let push d v =
      let b = A.get d.bottom in
      let t = A.get d.top in
      if b - t > d.mask then false
      else begin
        A.set d.cells.(b land d.mask) (Some v);
        A.set d.bottom (b + 1);
        true
      end

    (* Owner only.  LIFO end.  On the last element the owner races
       thieves with the same CAS on [top] they use, so exactly one
       side takes it. *)
    let pop d =
      let b = A.get d.bottom - 1 in
      A.set d.bottom b;
      let t = A.get d.top in
      if b > t then begin
        let cell = d.cells.(b land d.mask) in
        let v = A.get cell in
        A.set cell None;
        v
      end
      else if b = t then begin
        (* one element left: win it from the thieves or concede it *)
        let won = A.compare_and_set d.top t (t + 1) in
        A.set d.bottom (t + 1);
        if won then begin
          let cell = d.cells.(b land d.mask) in
          let v = A.get cell in
          A.set cell None;
          v
        end
        else None
      end
      else begin
        (* empty; undo the speculative decrement *)
        A.set d.bottom t;
        None
      end

    (* Any domain.  FIFO end.  The injection point sits in the claim
       window — after reading the cell, before the CAS that takes it:
       a thief killed there has claimed nothing, so the task is still
       there for the owner or the next thief. *)
    let steal d =
      let t = A.get d.top in
      let b = A.get d.bottom in
      if t >= b then None
      else begin
        let v = A.get d.cells.(t land d.mask) in
        if I.enabled then I.hit Inject.Sched_steal_pending;
        match v with
        | None -> None (* owner took it between our reads *)
        | Some _ ->
          if A.compare_and_set d.top t (t + 1) then begin
            if P.enabled then ignore (A.fetch_and_add d.steals 1);
            v
          end
          else begin
            if P.enabled then ignore (A.fetch_and_add d.steal_races 1);
            None
          end
      end
  end

  (* Help while waiting: before an owner suspends on [p], it pops
     tickets from its own deque and runs them ([run] claims each one,
     so a ticket a thief also reached still runs once).  In fork-join
     the awaited child is usually still there, so the await finishes
     inline instead of suspending.  [Some r] means [p] has resolved to
     [r]; [None] means the deque ran dry first, and stays dry — only
     its owner pushes — so the caller may suspend. *)
  let rec help d p run =
    match A.get p with
    | Promise.Done r -> Some r
    | Promise.Pending _ -> (
      match Deque.pop d with
      | Some tk ->
        run tk;
        help d p run
      | None -> Promise.poll p)
end
