(* How an idle worker goes to sleep without missing work: an
   eventcount.  A functor over the atomic primitives, the fault
   injector and the blocking primitive, like [Sched_protocol]:
   production instantiates it on hardware atomics and a
   [Mutex]/[Condition] pair ([Condvar]); test/test_sched.ml
   instantiates the same text on [Simsched.Sim.Atomic_shim] with
   blocking modelled as [Sim.block_until] and explores submit against
   sleeper.

   Sleeper ([park]): register in [sleepers], read [epoch], re-check
   every source of work once more, and only then block until [epoch]
   moves or the pool stops.  Waker ([wake], after making work visible):
   read [sleepers]; if anyone is registered, bump [epoch] and signal
   one blocked sleeper.  With nobody asleep a waker pays one atomic
   read.

   Why no wakeup is lost (SC atomics): take a sleeper's registration
   R, its epoch read E and its re-check C, and a waker's push W and
   its [sleepers] read S.
   - S sees no sleeper: S precedes R, so W precedes C, and the
     re-check finds the work (the run queue is linearizable; a stolen
     or popped deque task went to someone).
   - S sees the sleeper and the bump follows E: the sleeper's wait
     predicate ([epoch <> e]) holds before or after it starts to wait.
     [Condvar.wait] evaluates it under the mutex and [signal] passes
     through the same mutex after the bump, so the signal cannot fall
     between the sleeper's last evaluation and its wait.
   - S sees the sleeper and the bump precedes E: then W precedes C as
     well, as in the first case.
   Wake-one is enough: each push that may need a worker sends its own
   signal, and the waiter it reaches either waited on an older epoch,
   so it leaves the wait, or read the bumped epoch, so its re-check
   already followed the push.  Shutdown sets [stopping] before
   [wake_all], which both bumps and broadcasts.

   The registration is undone on every exit path, the fault window
   included: a worker killed between registering and blocking
   ([Sched_park_pending]) must not leave [sleepers] raised, or every
   later push would pay a wake for a sleeper that no longer exists. *)

module type BLOCKER = sig
  type t

  val create : unit -> t

  val wait : t -> until:(unit -> bool) -> unit
  (** Block until [until ()] holds; [until] is evaluated with the
      blocker's lock held, so a [signal] issued after the state it
      reads changed cannot slip between an evaluation and the wait. *)

  val signal : t -> unit
  val broadcast : t -> unit
end

module Condvar : BLOCKER = struct
  type t = { m : Mutex.t; c : Condition.t }

  let create () = { m = Mutex.create (); c = Condition.create () }

  let wait t ~until =
    Mutex.lock t.m;
    while not (until ()) do
      Condition.wait t.c t.m
    done;
    Mutex.unlock t.m

  (* Passing through the lock is what orders the signal after any
     evaluation of the old state: a sleeper that read it still holds
     the lock until it waits.  Signalling after the unlock spares the
     woken sleeper a second block on a lock its waker still holds. *)
  let signal t =
    Mutex.lock t.m;
    Mutex.unlock t.m;
    Condition.signal t.c

  let broadcast t =
    Mutex.lock t.m;
    Mutex.unlock t.m;
    Condition.broadcast t.c
end

module Make (A : Wfq.Atomic_prims.S) (I : Inject.S) (B : BLOCKER) = struct
  type t = { sleepers : int A.t; epoch : int A.t; blocker : B.t }

  let create () =
    { sleepers = A.make_contended 0; epoch = A.make_contended 0; blocker = B.create () }

  let sleepers t = A.get t.sleepers

  let wake t =
    if A.get t.sleepers > 0 then begin
      ignore (A.fetch_and_add t.epoch 1);
      B.signal t.blocker
    end

  let wake_all t =
    ignore (A.fetch_and_add t.epoch 1);
    B.broadcast t.blocker

  (* [recheck] is one more full look for work, taken after the epoch
     read: [Some r] returns [r] without blocking, [None] blocks until
     the epoch moves or [stopping ()].  [None] from [park] therefore
     means "woken": look again. *)
  let park t ~stopping ~recheck =
    ignore (A.fetch_and_add t.sleepers 1);
    Fun.protect ~finally:(fun () -> ignore (A.fetch_and_add t.sleepers (-1))) @@ fun () ->
    let e = A.get t.epoch in
    if I.enabled then I.hit Inject.Sched_park_pending;
    match recheck () with
    | Some _ as found -> found
    | None ->
      B.wait t.blocker ~until:(fun () -> A.get t.epoch <> e || stopping ());
      None
end
