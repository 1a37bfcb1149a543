(* The traced run's recorder.  Every domain that touches a layer gets
   one [dom]: exact call counters, timing histograms for the sampled
   calls, and a preallocated span buffer.  All of it lives in the
   benchmark; the library is only ever timed from outside, around its
   public calls.

   Sampling: calls are counted exactly, but only every [period]-th call
   per domain is timed (two clock reads and two minor-word reads cost
   ~70 ns, the size of a fast-path queue operation).  Sampled durations
   are scaled by calls / sampled calls where a total time is needed. *)

open Bigarray

let period = 16
let span_capacity = 1 lsl 14

type ints = (int, int_elt, c_layout) Array1.t

let ints n : ints =
  let a = Array1.create Int C_layout n in
  Array1.fill a 0;
  a

(* Span names.  A span's parent is a global span id ([slot * capacity +
   index]) or -1; spans of one request also share [req]. *)
let names =
  [|
    "pair"; "wfq.enqueue"; "wfq.dequeue"; "msg.send"; "msg.recv"; "req"; "sched.async"; "task.root";
    "task.sub"; "task.node";
  |]

let pair = 0
let wfq_enqueue = 1
let wfq_dequeue = 2
let msg_send = 3
let msg_recv = 4
let req = 5
let sched_async = 6
let task_root = 7
let task_sub = 8
let task_node = 9

type dom = {
  slot : int;
  gen : int;
  sp_name : ints;
  sp_start : ints;
  sp_stop : ints;
  sp_parent : ints;
  sp_req : ints;
  mutable spans : int;
  mutable dropped : int;
  mutable tick : int;  (** sampling counter for queue-level calls *)
  mutable task_tick : int;  (** sampling counter for task bodies *)
  mutable spawn_tick : int;  (** sampling counter for [async] calls *)
  (* wfq layer *)
  enq_ns : Hist.t;
  deq_ns : Hist.t;  (** every sampled dequeue, EMPTY or not *)
  deq_empty_ns : Hist.t;
  mutable enq_calls : int;
  mutable deq_calls : int;
  mutable deq_empty : int;
  mutable wfq_sampled : int;
  mutable wfq_words : int;  (** minor words inside sampled wfq calls *)
  (* sched layer *)
  async_ext_ns : Hist.t;
  spawn_ns : Hist.t;
  ready_wait_ns : Hist.t;
  poll_gap_ns : Hist.t;
  mutable last_poll : int;
  mutable tasks : int;
  mutable task_ns : int;  (** self time of sampled task bodies *)
  mutable tasks_sampled : int;
  mutable awaits : int;
  mutable awaits_suspended : int;
}

let generation = Atomic.make 0

(* The current pass's recorders, indexed by slot.  Replaced, never
   mutated, so [close] can read it from any domain without the lock. *)
let slots : dom array Atomic.t = Atomic.make [||]
let registry_lock = Mutex.create ()

let make_dom gen =
  Mutex.lock registry_lock;
  let slot = Array.length (Atomic.get slots) in
  let d =
    {
      slot;
      gen;
      sp_name = ints span_capacity;
      sp_start = ints span_capacity;
      sp_stop = ints span_capacity;
      sp_parent = ints span_capacity;
      sp_req = ints span_capacity;
      spans = 0;
      dropped = 0;
      tick = 0;
      task_tick = 0;
      spawn_tick = 0;
      enq_ns = Hist.create ();
      deq_ns = Hist.create ();
      deq_empty_ns = Hist.create ();
      enq_calls = 0;
      deq_calls = 0;
      deq_empty = 0;
      wfq_sampled = 0;
      wfq_words = 0;
      async_ext_ns = Hist.create ();
      spawn_ns = Hist.create ();
      ready_wait_ns = Hist.create ();
      poll_gap_ns = Hist.create ();
      last_poll = 0;
      tasks = 0;
      task_ns = 0;
      tasks_sampled = 0;
      awaits = 0;
      awaits_suspended = 0;
    }
  in
  Atomic.set slots (Array.append (Atomic.get slots) [| d |]);
  Mutex.unlock registry_lock;
  d

let key : dom option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The calling domain's recorder for the current traced pass, created
   on first use (scheduler workers are spawned by the library, so they
   can only find theirs this way). *)
let mine () =
  match Domain.DLS.get key with
  | Some d when d.gen = Atomic.get generation -> d
  | _ ->
    let d = make_dom (Atomic.get generation) in
    Domain.DLS.set key (Some d);
    d

(* Start a fresh traced pass: recorders from earlier passes are
   abandoned. *)
let reset () =
  Mutex.lock registry_lock;
  Atomic.set slots [||];
  Atomic.incr generation;
  Mutex.unlock registry_lock

let doms () = Array.to_list (Atomic.get slots)

let sample d =
  let c = d.tick in
  d.tick <- c + 1;
  c land (period - 1) = 0

let sample_task d =
  let c = d.task_tick in
  d.task_tick <- c + 1;
  c land (period - 1) = 0

let sample_spawn d =
  let c = d.spawn_tick in
  d.spawn_tick <- c + 1;
  c land (period - 1) = 0

(* Open a span; its end is written by [close], possibly from another
   domain (a fiber may resume elsewhere).  Returns the global id, or -1
   when the buffer is full. *)
let open_ d ~name ~parent ~req ~start =
  let i = d.spans in
  if i >= span_capacity then begin
    d.dropped <- d.dropped + 1;
    -1
  end
  else begin
    Array1.unsafe_set d.sp_name i name;
    Array1.unsafe_set d.sp_start i start;
    Array1.unsafe_set d.sp_stop i start;
    Array1.unsafe_set d.sp_parent i parent;
    Array1.unsafe_set d.sp_req i req;
    d.spans <- i + 1;
    (d.slot * span_capacity) + i
  end

let close id ~stop =
  let a = Atomic.get slots in
  if id >= 0 && id / span_capacity < Array.length a then
    Array1.unsafe_set a.(id / span_capacity).sp_stop (id land (span_capacity - 1)) stop

let span d ~name ~parent ~req ~start ~stop = close (open_ d ~name ~parent ~req ~start) ~stop

(* A sampled wfq call that ran from [t0] to [t1] and allocated [words]:
   its time, its words and a span under [parent].  The caller reads the
   clock and [Util.minor_words] tight around the call, and counts calls
   and EMPTY results itself, sampled or not. *)
let wfq_call d ~name ~parent ~req ~t0 ~t1 ~words =
  let ns = t1 - t0 in
  d.wfq_sampled <- d.wfq_sampled + 1;
  d.wfq_words <- d.wfq_words + words;
  span d ~name ~parent ~req ~start:t0 ~stop:t1;
  ns

let record_enqueue d ~parent ~req ~t0 ~t1 ~words =
  Hist.add d.enq_ns (wfq_call d ~name:wfq_enqueue ~parent ~req ~t0 ~t1 ~words)

let record_dequeue d ~parent ~req ~t0 ~t1 ~words ~empty =
  let ns = wfq_call d ~name:wfq_dequeue ~parent ~req ~t0 ~t1 ~words in
  Hist.add d.deq_ns ns;
  if empty then Hist.add d.deq_empty_ns ns

(* ------------------------------------------------------------------ *)
(* Task bodies                                                        *)

(* A traced task body's own time: from start to its first await, and
   from each resume to the next await or the end.  A fiber may resume
   on another domain, so every step looks its domain up again. *)
type body = { mutable seg : int; mutable self : int; sampled : bool; sid : int }

let body_start ~name ~parent ~req ~t_call =
  let d = mine () in
  let now = Util.now () in
  d.tasks <- d.tasks + 1;
  if t_call > 0 then Hist.add d.ready_wait_ns (now - t_call);
  let sampled = sample_task d in
  let sid = if sampled || parent >= 0 then open_ d ~name ~parent ~req ~start:now else -1 in
  { seg = now; self = 0; sampled; sid }

let body_pause b ~resolved =
  let d = mine () in
  d.awaits <- d.awaits + 1;
  if not resolved then d.awaits_suspended <- d.awaits_suspended + 1;
  b.self <- b.self + (Util.now () - b.seg)

let body_resume b = b.seg <- Util.now ()

let body_finish b =
  let now = Util.now () in
  if b.sampled then begin
    let d = mine () in
    d.task_ns <- d.task_ns + b.self + (now - b.seg);
    d.tasks_sampled <- d.tasks_sampled + 1
  end;
  close b.sid ~stop:now

(* The call time to hand a child task for its ready wait, when this
   [async] call is sampled; 0 otherwise.  [spawned] records the call's
   duration under [hist]. *)
let spawn_start () =
  let d = mine () in
  if sample_spawn d then Util.now () else 0

let spawned hist ~t_call = if t_call > 0 then Hist.add (hist (mine ())) (Util.now () - t_call)

(* ------------------------------------------------------------------ *)
(* Aggregation and output                                             *)

let sum f = List.fold_left (fun acc d -> acc + f d) 0 (doms ())

let merged f =
  let h = Hist.create () in
  List.iter (fun d -> Hist.merge ~into:h (f d)) (doms ());
  h

(* Estimated total time in sampled activities: sampled time scaled by
   calls / sampled calls, per domain. *)
let scaled ~ns ~sampled ~calls =
  sum (fun d -> if sampled d = 0 then 0 else ns d * calls d / sampled d)

(* Estimated total time inside wfq calls: per domain, calls times the
   typical sampled call (the slowest 0.1% — GC and host stalls that
   happened to land in a sampled call — left out). *)
let wfq_time () =
  List.fold_left
    (fun acc d ->
      acc
      +. (float_of_int d.enq_calls *. Hist.trimmed_mean d.enq_ns 0.999)
      +. (float_of_int d.deq_calls *. Hist.trimmed_mean d.deq_ns 0.999))
    0. (doms ())

(* Self time of every span: its duration minus the union of its
   children's intervals, clipped to its own. *)
let self_times ds =
  (* spans flattened in slot order; [ds] is [doms ()], so slot = index *)
  let ds = Array.of_list ds in
  let base = Array.make (Array.length ds + 1) 0 in
  Array.iteri (fun i d -> base.(i + 1) <- base.(i) + d.spans) ds;
  let total = base.(Array.length ds) in
  let starts = Array.make total 0 and stops = Array.make total 0 and children = ref [] in
  Array.iteri
    (fun s d ->
      for i = 0 to d.spans - 1 do
        let k = base.(s) + i in
        starts.(k) <- Array1.get d.sp_start i;
        stops.(k) <- Array1.get d.sp_stop i;
        let p = Array1.get d.sp_parent i in
        if p >= 0 then
          children := (base.(p / span_capacity) + (p land (span_capacity - 1)), starts.(k), stops.(k)) :: !children
      done)
    ds;
  let sorted = List.sort compare !children in
  let covered = Array.make total 0 in
  (* sweep each parent's children in start order, merging overlaps *)
  let flush p lo hi = if p >= 0 && hi > lo then covered.(p) <- covered.(p) + (hi - lo) in
  let p, lo, hi =
    List.fold_left
      (fun (p, lo, hi) (pi, s, e) ->
        let s = max s starts.(pi) and e = min e stops.(pi) in
        if e <= s then (p, lo, hi)
        else if pi = p && s <= hi then (p, lo, max hi e)
        else begin
          flush p lo hi;
          (pi, s, e)
        end)
      (-1, 0, 0) sorted
  in
  flush p lo hi;
  Array.init total (fun i -> stops.(i) - starts.(i) - covered.(i))

(* Writes DIR/<workload>.spans.jsonl, times relative to the first span,
   and returns per-name (name, count, mean duration ns, mean self ns). *)
let write_spans ~dir ~workload =
  let ds = doms () in
  let self = self_times ds in
  let origin =
    List.fold_left
      (fun acc d -> if d.spans > 0 then min acc (Array1.get d.sp_start 0) else acc)
      max_int ds
  in
  let path = Filename.concat dir (workload ^ ".spans.jsonl") in
  let oc = open_out path in
  let n = Array.length names in
  let count = Array.make n 0 and dur = Array.make n 0 and selfsum = Array.make n 0 in
  let k = ref 0 in
  List.iter
    (fun d ->
      for i = 0 to d.spans - 1 do
        let name = Array1.get d.sp_name i in
        let start = Array1.get d.sp_start i and stop = Array1.get d.sp_stop i in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"self_ns\":%d}\n"
          ((d.slot * span_capacity) + i)
          names.(name) (start - origin) (stop - origin) (Array1.get d.sp_parent i) (Array1.get d.sp_req i)
          self.(!k);
        count.(name) <- count.(name) + 1;
        dur.(name) <- dur.(name) + (stop - start);
        selfsum.(name) <- selfsum.(name) + self.(!k);
        incr k
      done)
    ds;
  close_out oc;
  List.filter_map
    (fun i ->
      if count.(i) = 0 then None
      else
        let c = float_of_int count.(i) in
        Some (names.(i), count.(i), float_of_int dur.(i) /. c, float_of_int selfsum.(i) /. c))
    (List.init n Fun.id)
